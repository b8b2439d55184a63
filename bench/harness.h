// The command line the fig_*/tbl_* harnesses share, in one place.
//
//   --json[=<path>]   every harness: a bare --json writes BENCH_<name>.json
//                     in the working directory;
//   --trace[=<path>]  the RunSpec-driven harnesses (trace_support.h; a bare
//                     --trace writes TRACE_<name>.csv);
//   --coherence=<mode>, --shards=N, --threads=T
//                     the RunSpec-driven harnesses;
//   --seeds=N         the multi-seed sweeps.
//
// A flag is read only when a harness asks for what it controls, so each
// binary accepts exactly the flags it uses; unknown flags are ignored
// (tools/flags.h). Harnesses with flags of their own read them through
// flags().
#ifndef SPEEDKIT_BENCH_HARNESS_H_
#define SPEEDKIT_BENCH_HARNESS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/parallel_runner.h"
#include "bench/table.h"
#include "bench/trace_support.h"
#include "bench/workload_runner.h"
#include "tools/flags.h"

namespace speedkit::bench {

class Harness {
 public:
  Harness(int argc, char** argv, std::string name)
      : flags_(argc, argv),
        name_(std::move(name)),
        json_path_(JsonPath(flags_.GetString("json", ""), name_)) {}

  // A bare --json picks BENCH_<name>.json, --json=<path> overrides, and an
  // absent flag disables the file (empty path).
  static std::string JsonPath(const std::string& flag_value,
                              const std::string& name) {
    if (flag_value.empty()) return "";
    return flag_value == "true" ? "BENCH_" + name + ".json" : flag_value;
  }

  const tools::Flags& flags() const { return flags_; }
  const std::string& json_path() const { return json_path_; }
  int shards(int fallback = 1) const {
    return static_cast<int>(flags_.GetInt("shards", fallback));
  }
  int threads(int fallback = 1) const {
    return static_cast<int>(flags_.GetInt("threads", fallback));
  }

  // --coherence takes CoherenceModeName's names; absent keeps the paper's
  // Δ-atomic default. An unknown name exits 2 rather than silently
  // measuring the wrong protocol.
  coherence::CoherenceMode coherence() const {
    coherence::CoherenceMode mode = coherence::CoherenceMode::kDeltaAtomic;
    std::string text = flags_.GetString("coherence", "");
    if (text.empty()) return mode;
    if (Status s = coherence::ParseCoherenceMode(text, &mode); !s.ok()) {
      std::fprintf(stderr, "--coherence: %s\n", s.ToString().c_str());
      std::exit(2);
    }
    return mode;
  }

  // Stamps --coherence and --shards into every config and spends the
  // --threads budget one way: on seed fan-out when there is more than one
  // trial, else on the run's own shards. Nesting both would oversubscribe
  // every core. Returns the fan-out thread count for RunSweep.
  int Apply(std::vector<RunSpec>* configs, int num_seeds) const {
    const bool fan_out = num_seeds * static_cast<int>(configs->size()) > 1;
    for (RunSpec& spec : *configs) {
      spec.stack.coherence.mode = coherence();
      spec.stack.shards = shards();
      spec.run_threads = fan_out ? 1 : threads();
    }
    return fan_out ? threads() : 1;
  }

  // DefaultRunSpec() with the flags applied, for one run at a time.
  RunSpec Spec() const {
    std::vector<RunSpec> one = {DefaultRunSpec()};
    Apply(&one, 1);
    return one.front();
  }

  // --seeds trials (default `default_seeds`) of every config, after Apply.
  const SweepResult& Sweep(std::vector<RunSpec>* configs, int default_seeds) {
    seeds_ = static_cast<int>(flags_.GetInt("seeds", default_seeds));
    sweep_ = RunSweep(*configs, seeds_, Apply(configs, seeds_));
    return sweep_;
  }

  // --trace: re-runs `spec` untraced and traced (MaybeTraceRun).
  void Trace(const RunSpec& spec) const {
    std::string path = flags_.GetString("trace", "");
    if (path == "true") path = "TRACE_" + name_ + ".csv";
    MaybeTraceRun(spec, name_, path);
  }

  // Ends the run. After a Sweep it notes the sweep's wall-clock cost. With
  // --json it writes {"bench": name, head..., "rows": rows}; after a Sweep
  // "seeds", "threads" and "shards" lead `head` and "wall_seconds",
  // "cpu_seconds" and "speedup" close the object. Null rows are left out.
  void Finish(JsonValue rows,
              const JsonValue& head = JsonValue::Object()) const {
    const bool swept = seeds_ > 0;
    if (swept) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%d seeds x %zu configs on %d thread(s): wall %.2fs, "
                    "cpu %.2fs, speedup %.2fx",
                    seeds_, sweep_.outputs.size(), threads(),
                    sweep_.wall_seconds, sweep_.cpu_seconds,
                    sweep_.Speedup());
      Note(buf);
    }
    if (json_path_.empty()) return;
    JsonValue root = JsonRow({{"bench", name_}});
    if (swept) {
      root.Set("seeds", seeds_);
      root.Set("threads", threads());
      root.Set("shards", shards());
    }
    for (const auto& [key, value] : head.fields()) root.Set(key, value);
    if (!rows.is_null()) root.Set("rows", std::move(rows));
    if (swept) {
      root.Set("wall_seconds", sweep_.wall_seconds);
      root.Set("cpu_seconds", sweep_.cpu_seconds);
      root.Set("speedup", sweep_.Speedup());
    }
    obs::WriteJsonFile(json_path_, root);
  }

 private:
  tools::Flags flags_;
  std::string name_;
  std::string json_path_;
  int seeds_ = 0;  // set by Sweep
  SweepResult sweep_;
};

}  // namespace speedkit::bench

#endif  // SPEEDKIT_BENCH_HARNESS_H_
