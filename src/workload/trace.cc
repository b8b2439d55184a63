#include "workload/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "common/strings.h"

namespace speedkit::workload {

namespace {

std::string EscapeString(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeString(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case 't':
          out.push_back('\t');
          break;
        case 'n':
          out.push_back('\n');
          break;
        default:
          out.push_back(s[i]);
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::string EncodeValue(const storage::FieldValue& v) {
  switch (v.index()) {
    case 0:
      return "i:" + std::to_string(std::get<int64_t>(v));
    case 1:
      return "d:" + StrFormat("%.17g", std::get<double>(v));
    case 2:
      return "s:" + EscapeString(std::get<std::string>(v));
    case 3:
      return std::string("b:") + (std::get<bool>(v) ? "1" : "0");
  }
  return "s:";
}

Result<storage::FieldValue> DecodeValue(std::string_view encoded) {
  if (encoded.size() < 2 || encoded[1] != ':') {
    return Status::Corruption("bad field value: " + std::string(encoded));
  }
  std::string_view payload = encoded.substr(2);
  switch (encoded[0]) {
    case 'i': {
      auto n = ParseInt64(payload);
      if (!n.has_value()) {
        // Allow negatives: ParseInt64 is unsigned-only by design.
        if (!payload.empty() && payload[0] == '-') {
          auto m = ParseInt64(payload.substr(1));
          if (m.has_value()) return storage::FieldValue(-*m);
        }
        return Status::Corruption("bad int: " + std::string(payload));
      }
      return storage::FieldValue(*n);
    }
    case 'd': {
      char* end = nullptr;
      std::string buf(payload);
      double d = std::strtod(buf.c_str(), &end);
      if (end == buf.c_str()) {
        return Status::Corruption("bad double: " + buf);
      }
      return storage::FieldValue(d);
    }
    case 's':
      return storage::FieldValue(UnescapeString(payload));
    case 'b':
      return storage::FieldValue(payload == "1");
  }
  return Status::Corruption("unknown value tag: " + std::string(encoded));
}

}  // namespace

void Trace::AddFetch(SimTime at, uint64_t client_id, std::string url) {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kFetch;
  ev.at = at;
  ev.client_id = client_id;
  ev.url = std::move(url);
  events_.push_back(std::move(ev));
}

void Trace::AddWrite(SimTime at, std::string record_id,
                     std::map<std::string, storage::FieldValue> fields) {
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kWrite;
  ev.at = at;
  ev.record_id = std::move(record_id);
  ev.fields = std::move(fields);
  events_.push_back(std::move(ev));
}

void Trace::SortByTime() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.at < b.at;
                   });
}

void Trace::Restamp(SimTime start, Duration pace) {
  for (size_t i = 0; i < events_.size(); ++i) {
    events_[i].at =
        start + Duration::Micros(pace.micros() * static_cast<int64_t>(i));
  }
}

std::string Trace::Serialize() const {
  std::string out;
  for (const TraceEvent& ev : events_) {
    if (ev.kind == TraceEvent::Kind::kFetch) {
      out += StrFormat("F\t%lld\t%llu\t", static_cast<long long>(ev.at.micros()),
                       static_cast<unsigned long long>(ev.client_id));
      out += EscapeString(ev.url);
    } else {
      out += StrFormat("W\t%lld\t", static_cast<long long>(ev.at.micros()));
      out += EscapeString(ev.record_id);
      for (const auto& [name, value] : ev.fields) {
        out += '\t';
        out += EscapeString(name);
        out += '=';
        out += EncodeValue(value);
      }
    }
    out += "\n";
  }
  return out;
}

Result<Trace> Trace::Deserialize(std::string_view text) {
  Trace trace;
  for (std::string_view line : SplitView(text, '\n')) {
    if (line.empty()) continue;
    std::vector<std::string_view> parts;
    size_t start = 0;
    while (true) {
      size_t pos = line.find('\t', start);
      if (pos == std::string_view::npos) {
        parts.push_back(line.substr(start));
        break;
      }
      parts.push_back(line.substr(start, pos - start));
      start = pos + 1;
    }
    if (parts.size() < 3) {
      return Status::Corruption("short trace line: " + std::string(line));
    }
    auto at_us = ParseInt64(parts[1]);
    if (!at_us.has_value()) {
      return Status::Corruption("bad timestamp: " + std::string(parts[1]));
    }
    SimTime at = SimTime::FromMicros(*at_us);
    if (parts[0] == "F") {
      if (parts.size() != 4) {
        return Status::Corruption("bad fetch line: " + std::string(line));
      }
      auto client = ParseInt64(parts[2]);
      if (!client.has_value()) {
        return Status::Corruption("bad client id: " + std::string(parts[2]));
      }
      trace.AddFetch(at, static_cast<uint64_t>(*client),
                     UnescapeString(parts[3]));
    } else if (parts[0] == "W") {
      std::map<std::string, storage::FieldValue> fields;
      for (size_t i = 3; i < parts.size(); ++i) {
        size_t eq = parts[i].find('=');
        if (eq == std::string_view::npos) {
          return Status::Corruption("bad field: " + std::string(parts[i]));
        }
        auto value = DecodeValue(parts[i].substr(eq + 1));
        if (!value.ok()) return value.status();
        fields[UnescapeString(parts[i].substr(0, eq))] =
            std::move(value).value();
      }
      trace.AddWrite(at, UnescapeString(parts[2]), std::move(fields));
    } else {
      return Status::Corruption("unknown trace event kind: " +
                                std::string(parts[0]));
    }
  }
  return trace;
}

Result<Trace> LoadTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open trace file: " + path);
  return Trace::Deserialize(
      std::string(std::istreambuf_iterator<char>(in), {}));
}

}  // namespace speedkit::workload
