#include "http/url.h"

#include "common/strings.h"

namespace speedkit::http {

Result<Url> Url::Parse(std::string_view input) {
  Url url;
  size_t scheme_end = input.find("://");
  if (scheme_end == std::string_view::npos) {
    return Status::InvalidArgument("url has no scheme: " + std::string(input));
  }
  url.scheme_ = AsciiLower(input.substr(0, scheme_end));
  if (url.scheme_ != "http" && url.scheme_ != "https") {
    return Status::InvalidArgument("unsupported scheme: " + url.scheme_);
  }
  std::string_view rest = input.substr(scheme_end + 3);

  size_t authority_end = rest.find_first_of("/?#");
  std::string_view authority = rest.substr(0, authority_end);
  if (authority.empty()) {
    return Status::InvalidArgument("url has empty host: " + std::string(input));
  }
  size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    auto port = ParseInt64(authority.substr(colon + 1));
    if (!port.has_value() || *port == 0 || *port > 65535) {
      return Status::InvalidArgument("bad port in url: " + std::string(input));
    }
    url.port_ = static_cast<uint16_t>(*port);
    authority = authority.substr(0, colon);
  }
  if (authority.empty()) {
    return Status::InvalidArgument("url has empty host: " + std::string(input));
  }
  url.host_ = AsciiLower(authority);

  if (authority_end == std::string_view::npos) return url;
  rest = rest.substr(authority_end);

  size_t frag = rest.find('#');
  if (frag != std::string_view::npos) {
    url.fragment_ = std::string(rest.substr(frag + 1));
    rest = rest.substr(0, frag);
  }
  size_t q = rest.find('?');
  if (q != std::string_view::npos) {
    url.query_ = std::string(rest.substr(q + 1));
    rest = rest.substr(0, q);
  }
  url.path_ = rest.empty() ? "/" : std::string(rest);
  return url;
}

uint16_t Url::EffectivePort() const {
  if (port_ != 0) return port_;
  return scheme_ == "https" ? 443 : 80;
}

std::string Url::CacheKey() const {
  std::string key = scheme_ + "://" + host_;
  uint16_t default_port = scheme_ == "https" ? 443 : 80;
  if (port_ != 0 && port_ != default_port) {
    key += ':';
    key += std::to_string(port_);
  }
  key += path_;
  if (!query_.empty()) key += "?" + query_;
  return key;
}

std::string Url::ToString() const {
  std::string s = CacheKey();
  if (!fragment_.empty()) s += "#" + fragment_;
  return s;
}

}  // namespace speedkit::http
