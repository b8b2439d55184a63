#include "net/http_codec.h"

#include <optional>

#include "common/strings.h"

namespace speedkit::net {

namespace {

constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kHeaderEnd = "\r\n\r\n";

std::optional<http::Method> ParseMethod(std::string_view token) {
  if (token == "GET") return http::Method::kGet;
  if (token == "HEAD") return http::Method::kHead;
  if (token == "POST") return http::Method::kPost;
  if (token == "PUT") return http::Method::kPut;
  if (token == "PATCH") return http::Method::kPatch;
  if (token == "DELETE") return http::Method::kDelete;
  return std::nullopt;
}

// Calls field(name, value) for each field line of the header block
// (everything between the start line and the blank line). Returns false on
// a malformed field line.
template <typename FieldFn>
bool ForEachField(std::string_view block, FieldFn&& field) {
  while (!block.empty()) {
    size_t eol = block.find(kCrlf);
    if (eol == std::string_view::npos) return false;
    std::string_view line = block.substr(0, eol);
    block.remove_prefix(eol + kCrlf.size());
    if (line.empty()) continue;
    // Obsolete line folding (leading whitespace) is rejected, per RFC 7230.
    if (line.front() == ' ' || line.front() == '\t') return false;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    std::string_view name = line.substr(0, colon);
    if (TrimWhitespace(name) != name) {
      return false;  // "Name :" — whitespace around the name is invalid
    }
    field(name, TrimWhitespace(line.substr(colon + 1)));
  }
  return true;
}

// Parses the field lines into `headers` with one allocation: the first pass
// checks every line and sizes the map's block, the second fills it.
// Returns false on a malformed field line.
bool ParseHeaderLines(std::string_view block, http::HeaderMap* headers) {
  size_t count = 0;
  size_t text_bytes = 0;
  if (!ForEachField(block, [&](std::string_view name, std::string_view value) {
        ++count;
        text_bytes += name.size() + value.size();
      })) {
    return false;
  }
  http::HeaderMap::Builder head(count, text_bytes);
  ForEachField(block, [&head](std::string_view name, std::string_view value) {
    head.Append(name, value);
  });
  *headers = head.Finish();
  return true;
}

// Connection semantics given the HTTP minor version (1.0 default close,
// 1.1 default keep-alive).
bool KeepAlive(const http::HeaderMap& headers, int version_minor) {
  auto conn = headers.Get("Connection");
  if (conn.has_value()) {
    if (EqualsIgnoreCase(*conn, "close")) return false;
    if (EqualsIgnoreCase(*conn, "keep-alive")) return true;
  }
  return version_minor >= 1;
}

// Shared framing: locate the header block, parse headers, size the body.
// On success sets every out-param and returns kOk with *consumed set.
struct Frame {
  std::string_view start_line;
  std::string_view header_block;
  std::string_view body;
  size_t consumed = 0;
};

ParseStatus SplitFrame(std::string_view data, const http::HeaderMap& headers,
                       size_t header_end, Frame* frame) {
  size_t body_len = 0;
  auto cl = headers.Get("Content-Length");
  if (cl.has_value()) {
    auto parsed = ParseInt64(*cl);
    if (!parsed.has_value() || *parsed < 0 ||
        static_cast<size_t>(*parsed) > kMaxBodyBytes) {
      return ParseStatus::kError;
    }
    body_len = static_cast<size_t>(*parsed);
  }
  if (headers.Has("Transfer-Encoding")) return ParseStatus::kError;
  size_t total = header_end + kHeaderEnd.size() + body_len;
  if (data.size() < total) return ParseStatus::kNeedMore;
  frame->body = data.substr(header_end + kHeaderEnd.size(), body_len);
  frame->consumed = total;
  return ParseStatus::kOk;
}

// Finds the blank line; kNeedMore/kError per the header-size limit.
ParseStatus FindHeaderEnd(std::string_view data, size_t* header_end) {
  size_t end = data.find(kHeaderEnd);
  if (end == std::string_view::npos) {
    return data.size() > kMaxHeaderBytes ? ParseStatus::kError
                                         : ParseStatus::kNeedMore;
  }
  if (end > kMaxHeaderBytes) return ParseStatus::kError;
  *header_end = end;
  return ParseStatus::kOk;
}

}  // namespace

ParseStatus ParseRequest(std::string_view data, WireRequest* out,
                         size_t* consumed) {
  size_t header_end = 0;
  ParseStatus st = FindHeaderEnd(data, &header_end);
  if (st != ParseStatus::kOk) return st;

  std::string_view head = data.substr(0, header_end);
  size_t line_end = head.find(kCrlf);
  // Field lines span (start line, blank line]; slicing through the first
  // CRLF of the terminator leaves every line — the last included — with
  // its own CRLF, which is what ParseHeaderLines consumes.
  std::string_view start = line_end == std::string_view::npos
                               ? head
                               : head.substr(0, line_end);
  std::string_view header_block =
      line_end == std::string_view::npos
          ? std::string_view{}
          : data.substr(line_end + kCrlf.size(),
                        header_end + kCrlf.size() - line_end - kCrlf.size());

  // "METHOD SP target SP HTTP/1.x"
  size_t sp1 = start.find(' ');
  size_t sp2 = start.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) return ParseStatus::kError;
  auto method = ParseMethod(start.substr(0, sp1));
  std::string_view target = start.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view version = start.substr(sp2 + 1);
  if (!method.has_value() || target.empty() || target.front() != '/') {
    return ParseStatus::kError;
  }
  int version_minor;
  if (version == "HTTP/1.1") {
    version_minor = 1;
  } else if (version == "HTTP/1.0") {
    version_minor = 0;
  } else {
    return ParseStatus::kError;
  }

  WireRequest req;
  req.method = *method;
  req.target = std::string(target);
  if (!ParseHeaderLines(header_block, &req.headers)) {
    return ParseStatus::kError;
  }

  Frame frame;
  st = SplitFrame(data, req.headers, header_end, &frame);
  if (st != ParseStatus::kOk) return st;
  req.body = std::string(frame.body);
  req.keep_alive = KeepAlive(req.headers, version_minor);
  *out = std::move(req);
  *consumed = frame.consumed;
  return ParseStatus::kOk;
}

ParseStatus ParseResponse(std::string_view data, WireResponse* out,
                          size_t* consumed) {
  size_t header_end = 0;
  ParseStatus st = FindHeaderEnd(data, &header_end);
  if (st != ParseStatus::kOk) return st;

  std::string_view head = data.substr(0, header_end);
  size_t line_end = head.find(kCrlf);
  std::string_view start = line_end == std::string_view::npos
                               ? head
                               : head.substr(0, line_end);
  std::string_view header_block =
      line_end == std::string_view::npos
          ? std::string_view{}
          : data.substr(line_end + kCrlf.size(),
                        header_end + kCrlf.size() - line_end - kCrlf.size());

  // "HTTP/1.x SP code SP reason" (reason may be empty or contain spaces).
  int version_minor;
  if (StartsWith(start, "HTTP/1.1 ")) {
    version_minor = 1;
  } else if (StartsWith(start, "HTTP/1.0 ")) {
    version_minor = 0;
  } else {
    return ParseStatus::kError;
  }
  std::string_view rest = start.substr(9);
  size_t sp = rest.find(' ');
  std::string_view code_text =
      sp == std::string_view::npos ? rest : rest.substr(0, sp);
  auto code = ParseInt64(code_text);
  if (!code.has_value() || *code < 100 || *code > 599) {
    return ParseStatus::kError;
  }

  WireResponse resp;
  resp.status_code = static_cast<int>(*code);
  if (!ParseHeaderLines(header_block, &resp.headers)) {
    return ParseStatus::kError;
  }

  Frame frame;
  st = SplitFrame(data, resp.headers, header_end, &frame);
  if (st != ParseStatus::kOk) return st;
  resp.body = http::Body(frame.body);
  resp.keep_alive = KeepAlive(resp.headers, version_minor);
  *out = std::move(resp);
  *consumed = frame.consumed;
  return ParseStatus::kOk;
}

std::string SerializeRequest(http::Method method, std::string_view target,
                             const http::HeaderMap& headers,
                             std::string_view body) {
  std::string out;
  out.reserve(64 + headers.WireSize() + body.size());
  out.append(http::MethodName(method));
  out.push_back(' ');
  out.append(target);
  out.append(" HTTP/1.1\r\n");
  for (const auto& [name, value] : headers) {
    out.append(name).append(": ").append(value).append(kCrlf);
  }
  if (!body.empty()) {
    out.append("Content-Length: ")
        .append(std::to_string(body.size()))
        .append(kCrlf);
  }
  out.append(kCrlf);
  out.append(body);
  return out;
}

std::string SerializeResponse(int status_code, const http::HeaderMap& headers,
                              const http::Body& body, bool keep_alive) {
  std::string out;
  out.reserve(64 + headers.WireSize() + body.size());
  out.append("HTTP/1.1 ");
  out.append(std::to_string(status_code));
  out.push_back(' ');
  out.append(StatusText(status_code));
  out.append(kCrlf);
  for (const auto& [name, value] : headers) {
    if (EqualsIgnoreCase(name, "Content-Length") ||
        EqualsIgnoreCase(name, "Connection")) {
      continue;
    }
    out.append(name).append(": ").append(value).append(kCrlf);
  }
  out.append("Content-Length: ")
      .append(std::to_string(body.size()))
      .append(kCrlf);
  out.append(keep_alive ? "Connection: keep-alive\r\n"
                        : "Connection: close\r\n");
  out.append(kCrlf);
  body.AppendTo(&out);
  return out;
}

std::string_view StatusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 204: return "No Content";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 421: return "Misdirected Request";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

}  // namespace speedkit::net
