// Single-threaded epoll event loop — the reactor under speedkit_edged.
//
// One loop drives every listener, connection, and timer of an edged
// instance; everything it dispatches runs on the thread inside Run(). The
// only thread-safe entry points are Stop() and Post() (both wake the loop
// through an eventfd); all other methods must be called from loop context.
// This single-threaded discipline is what lets the request path share the
// simulator's SpeedKitStack without adding locks to it.
#ifndef SPEEDKIT_NET_EVENT_LOOP_H_
#define SPEEDKIT_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <unordered_map>
#include <vector>

namespace speedkit::net {

class EventLoop {
 public:
  // Bitmask passed to the fd callback: which readiness edges fired.
  // (Values mirror EPOLLIN/EPOLLOUT so the implementation is a passthrough,
  // but headers stay free of <sys/epoll.h>.)
  static constexpr uint32_t kReadable = 0x1;
  static constexpr uint32_t kWritable = 0x4;
  static constexpr uint32_t kClosed = 0x10;  // peer hangup or fd error

  using FdCallback = std::function<void(uint32_t events)>;
  using TimerId = uint64_t;
  static constexpr TimerId kInvalidTimer = 0;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Dispatches events until Stop(). Re-runnable after a Stop.
  void Run();

  // Runs at most one dispatch batch: waits up to `wait` for readiness,
  // then fires due timers and posted tasks. Lets tests and in-process
  // harnesses interleave loop progress with their own logic.
  void RunOnce(std::chrono::milliseconds wait);

  // Thread-safe. Makes Run() return after the current batch.
  void Stop();

  // Thread-safe. Queues fn to run on the loop thread, then wakes it.
  void Post(std::function<void()> fn);

  // Registers fd for the given event mask (kReadable|kWritable). The loop
  // does NOT own the fd; unregister with RemoveFd before closing it.
  void AddFd(int fd, uint32_t events, FdCallback cb);
  void ModifyFd(int fd, uint32_t events);
  void RemoveFd(int fd);

  // One-shot timer. Cancel is lazy (heap entries expire unnoticed), so
  // cancelled timers cost nothing but a skipped pop.
  TimerId AddTimer(std::chrono::microseconds delay, std::function<void()> fn);
  bool CancelTimer(TimerId id);

  bool running() const { return running_; }
  size_t num_fds() const { return fds_.size(); }
  size_t num_timers() const { return timer_fns_.size(); }

 private:
  struct TimerEntry {
    std::chrono::steady_clock::time_point deadline;
    TimerId id;
    bool operator>(const TimerEntry& o) const {
      return deadline != o.deadline ? deadline > o.deadline : id > o.id;
    }
  };

  void Wake();
  int NextTimeoutMs(std::chrono::milliseconds cap) const;
  void FireDueTimers();
  void DrainPosted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool running_ = false;
  // Written by Stop() from any thread and by a signal handler: lock-free,
  // so the handler's store stays async-signal-safe.
  std::atomic<bool> stop_{false};

  std::unordered_map<int, FdCallback> fds_;

  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timer_heap_;
  std::unordered_map<TimerId, std::function<void()>> timer_fns_;
  TimerId next_timer_id_ = 1;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
};

}  // namespace speedkit::net

#endif  // SPEEDKIT_NET_EVENT_LOOP_H_
