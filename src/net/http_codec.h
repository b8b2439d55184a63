// Minimal HTTP/1.1 wire codec for the socketed edge mode.
//
// Covers exactly what speedkit_edged and speedkit_loadgen exchange:
// origin-form request targets, headers, Content-Length bodies, keep-alive
// and pipelining. Deliberately out of scope (a request using them is a
// protocol error, never silently mis-framed): chunked transfer coding,
// multiline header folding, HTTP/0.9/2+. Parsing is incremental — feed the
// connection's read buffer, get kNeedMore until a full message is present,
// then the number of bytes to consume, so pipelined messages parse in a
// loop without copying the buffer.
#ifndef SPEEDKIT_NET_HTTP_CODEC_H_
#define SPEEDKIT_NET_HTTP_CODEC_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "http/message.h"

namespace speedkit::net {

enum class ParseStatus {
  kNeedMore,  // buffer holds a prefix of a valid message
  kOk,        // one full message parsed; *consumed bytes belong to it
  kError,     // malformed or over a hard limit; close the connection
};

// Hard limits: a peer that exceeds them is broken or hostile.
inline constexpr size_t kMaxHeaderBytes = 16 * 1024;
inline constexpr size_t kMaxBodyBytes = 8 * 1024 * 1024;

struct WireRequest {
  http::Method method = http::Method::kGet;
  std::string target;  // origin-form: "/path?query" exactly as sent
  http::HeaderMap headers;
  std::string body;
  bool keep_alive = true;  // Connection header applied to the HTTP version
};

struct WireResponse {
  int status_code = 0;
  http::HeaderMap headers;
  http::Body body;  // a proxied response shares its cache entry's buffer
  bool keep_alive = true;
};

// Parses one request/response from the front of `data`. On kOk, *consumed
// is the exact frame length (parse the rest of the buffer by slicing).
ParseStatus ParseRequest(std::string_view data, WireRequest* out,
                         size_t* consumed);
ParseStatus ParseResponse(std::string_view data, WireResponse* out,
                          size_t* consumed);

// Serializes a request in origin form ("GET /x HTTP/1.1"). A Host header
// must already be in `headers` (edged rebuilds the absolute URL from it).
std::string SerializeRequest(http::Method method, std::string_view target,
                             const http::HeaderMap& headers,
                             std::string_view body = {});

// Serializes a response; Content-Length and Connection are emitted from
// the arguments, never taken from `headers`. The body is appended chunk by
// chunk, so a joined body is never flattened first.
std::string SerializeResponse(int status_code, const http::HeaderMap& headers,
                              const http::Body& body, bool keep_alive);

// "OK", "Not Found", ... ("Unknown" for codes without a phrase here).
std::string_view StatusText(int code);

}  // namespace speedkit::net

#endif  // SPEEDKIT_NET_HTTP_CODEC_H_
