#include "http/message.h"

#include <ostream>

namespace speedkit::http {

Body::Body(std::string bytes) {
  if (bytes.empty()) return;
  bytes.shrink_to_fit();
  buf_ = std::make_shared<const std::string>(std::move(bytes));
}

std::ostream& operator<<(std::ostream& os, const Body& body) {
  return os << body.view();
}

std::string_view MethodName(Method m) {
  switch (m) {
    case Method::kGet:
      return "GET";
    case Method::kHead:
      return "HEAD";
    case Method::kPost:
      return "POST";
    case Method::kPut:
      return "PUT";
    case Method::kPatch:
      return "PATCH";
    case Method::kDelete:
      return "DELETE";
  }
  return "GET";
}

bool IsCacheableMethod(Method m) {
  return m == Method::kGet || m == Method::kHead;
}

CacheControl HttpResponse::GetCacheControl() const {
  auto value = headers.Get("Cache-Control");
  return value.has_value() ? CacheControl::Parse(*value) : CacheControl{};
}

void HttpResponse::SetCacheControl(const CacheControl& cc) {
  headers.Set("Cache-Control", cc.ToString());
}

std::string HttpResponse::ETag() const {
  auto value = headers.Get("ETag");
  return value.has_value() ? std::string(*value) : std::string();
}

void HttpResponse::SetETag(std::string_view etag) {
  headers.Set("ETag", etag);
}

size_t HttpResponse::WireSize() const {
  return 17 /* status line */ + headers.WireSize() + body.size();
}

HttpResponse MakeOkResponse(Body body, const CacheControl& cc,
                            uint64_t object_version, SimTime generated_at) {
  HttpResponse resp;
  resp.status_code = 200;
  resp.body = std::move(body);
  resp.SetCacheControl(cc);
  resp.object_version = object_version;
  resp.generated_at = generated_at;
  return resp;
}

HttpResponse MakeNotModified(std::string_view etag, const CacheControl& cc,
                             uint64_t object_version, SimTime generated_at) {
  HttpResponse resp;
  resp.status_code = 304;
  resp.SetETag(etag);
  resp.SetCacheControl(cc);
  resp.object_version = object_version;
  resp.generated_at = generated_at;
  return resp;
}

HttpResponse MakeNotFound() {
  static const Body kBody("not found");
  HttpResponse resp;
  resp.status_code = 404;
  resp.body = kBody;
  return resp;
}

HttpResponse MakeServiceUnavailable() {
  static const Body kBody("service unavailable");
  HttpResponse resp;
  resp.status_code = 503;
  resp.body = kBody;
  return resp;
}

}  // namespace speedkit::http
