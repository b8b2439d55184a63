// Workload traces: a recorded, replayable sequence of fetches and writes.
//
// The paper's evaluation is grounded in production traffic we cannot ship;
// traces are the bridge — any workload (synthetic or converted from real
// logs) serializes to a line-oriented text format and replays
// deterministically against any stack variant, so competing configurations
// are compared on *identical* request sequences.
//
// Format (tab-separated, one event per line):
//   F <at_us> <client_id> <url>
//   W <at_us> <record_id> <field>=<typed-value> ...
// typed-value: i:<int> | d:<double> | b:0|1 | s:<escaped string>
#ifndef SPEEDKIT_WORKLOAD_TRACE_H_
#define SPEEDKIT_WORKLOAD_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "storage/record.h"

namespace speedkit::workload {

struct TraceEvent {
  enum class Kind { kFetch, kWrite };
  Kind kind = Kind::kFetch;
  SimTime at;
  // kFetch:
  uint64_t client_id = 0;
  std::string url;
  // kWrite:
  std::string record_id;
  std::map<std::string, storage::FieldValue> fields;
};

class Trace {
 public:
  void AddFetch(SimTime at, uint64_t client_id, std::string url);
  void AddWrite(SimTime at, std::string record_id,
                std::map<std::string, storage::FieldValue> fields);

  // Events sorted by time (stable for ties).
  const std::vector<TraceEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  // Sorts by timestamp; call after out-of-order construction.
  void SortByTime();

  // Re-times the events in their current order: event i fires at
  // start + i * pace.
  void Restamp(SimTime start, Duration pace);

  std::string Serialize() const;
  static Result<Trace> Deserialize(std::string_view text);

 private:
  std::vector<TraceEvent> events_;
};

// Reads and parses a trace file (NotFound if it cannot be opened).
Result<Trace> LoadTrace(const std::string& path);

}  // namespace speedkit::workload

#endif  // SPEEDKIT_WORKLOAD_TRACE_H_
