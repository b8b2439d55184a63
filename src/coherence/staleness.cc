#include "coherence/staleness.h"

#include <algorithm>

namespace speedkit::coherence {

void StalenessTracker::KeyHistory::Push(DatedWrite write, size_t capacity) {
  if (ring.size() < capacity) {
    // Grow by doubling, but never reserve past the ring's capacity.
    if (ring.size() == ring.capacity()) {
      ring.reserve(std::min(capacity, std::max<size_t>(1, 2 * ring.size())));
    }
    ring.push_back(write);
  } else if (capacity != 0) {
    ring[oldest] = write;
    oldest = (oldest + 1) % ring.size();
  }
}

void StalenessTracker::RecordWrite(std::string_view key, uint64_t version,
                                   SimTime now) {
  auto it = keys_.find(key);
  if (it == keys_.end()) {
    it = keys_.emplace(std::string(key), KeyHistory{}).first;
  }
  KeyHistory& history = it->second;
  if (version <= history.head_version) return;  // out-of-order: ignore
  history.head_version = version;
  history.Push({version, now}, ring_capacity_);
}

Duration StalenessTracker::RecordRead(std::string_view key, uint64_t version,
                                      SimTime now, bool excused) {
  report_.reads++;
  auto it = keys_.find(key);
  if (it == keys_.end()) return Duration::Zero();  // key never written
  const KeyHistory& history = it->second;
  if (version >= history.head_version) return Duration::Zero();

  report_.stale_reads++;
  // The read value died when version+1 was written: find the first dated
  // write with version > served version.
  size_t overwrite = history.FindFirst(
      [version](const DatedWrite& w) { return w.first > version; });
  Duration staleness;
  if (overwrite != history.size()) {
    staleness = now - history.at(overwrite).second;
    if (overwrite == 0 && history.at(0).first > version + 1) {
      // The true overwrite rotated out; this is a lower bound.
      report_.clamped++;
    }
  } else {
    // All dated writes are <= version yet head > version: the overwrite
    // rotated out entirely. Clamp to the newest known write.
    staleness = history.size() == 0
                    ? Duration::Zero()
                    : now - history.at(history.size() - 1).second;
    report_.clamped++;
  }
  if (staleness > report_.max_staleness) report_.max_staleness = staleness;
  if (excused) {
    report_.excused_stale_reads++;
  } else if (staleness > delta_bound_) {
    report_.delta_violations++;
  }
  staleness_us_.Add(staleness.micros());
  return staleness;
}

std::optional<uint64_t> StalenessTracker::CurrentVersion(
    std::string_view key) const {
  auto it = keys_.find(key);
  if (it == keys_.end()) return std::nullopt;
  return it->second.head_version;
}

SnapshotCheck StalenessTracker::CheckSnapshot(
    const std::vector<ReadVersion>& reads) const {
  SnapshotCheck out;
  bool have_birth = false;
  bool have_death = false;
  SimTime max_birth;
  SimTime min_death;
  for (const ReadVersion& read : reads) {
    auto it = keys_.find(read.key);
    if (it == keys_.end()) continue;  // never written: constrains nothing
    const KeyHistory& history = it->second;

    // Birth: when the read version was written. Version 0 predates all
    // tracked writes (served before the first write) — open from -inf.
    size_t born = history.FindFirst(
        [&read](const DatedWrite& w) { return w.first == read.version; });
    if (born != history.size()) {
      SimTime birth = history.at(born).second;
      if (!have_birth || birth > max_birth) max_birth = birth;
      have_birth = true;
    } else if (read.version > 0) {
      out.clamped = true;  // write time rotated out: treat as -inf
    }

    // Death: when the next version was written; a head read never dies.
    if (read.version >= history.head_version) continue;
    size_t overwrite = history.FindFirst(
        [&read](const DatedWrite& w) { return w.first > read.version; });
    if (overwrite == history.size()) {
      out.clamped = true;  // overwrite rotated out entirely: treat as +inf
      continue;
    }
    const DatedWrite& death = history.at(overwrite);
    if (overwrite == 0 && death.first > read.version + 1) {
      out.clamped = true;  // true overwrite may have rotated out
    }
    if (!have_death || death.second < min_death) min_death = death.second;
    have_death = true;
  }
  // Intervals are [birth, death): a common instant exists iff the latest
  // birth strictly precedes the earliest death. Missing bounds are
  // infinitely generous.
  if (have_birth && have_death) out.consistent = max_birth < min_death;
  return out;
}

}  // namespace speedkit::coherence
