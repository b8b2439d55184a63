#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cstdio>
#include <utility>

namespace speedkit::net {

namespace {

uint32_t ToEpoll(uint32_t events) {
  uint32_t e = 0;
  if (events & EventLoop::kReadable) e |= EPOLLIN;
  if (events & EventLoop::kWritable) e |= EPOLLOUT;
  return e;
}

uint32_t FromEpoll(uint32_t e) {
  uint32_t events = 0;
  if (e & (EPOLLIN | EPOLLPRI)) events |= EventLoop::kReadable;
  if (e & EPOLLOUT) events |= EventLoop::kWritable;
  if (e & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) events |= EventLoop::kClosed;
  return events;
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ >= 0 && wake_fd_ >= 0) {
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::Wake() {
  uint64_t one = 1;
  // A full eventfd counter still wakes the loop; ignore short writes.
  (void)!::write(wake_fd_, &one, sizeof(one));
}

static_assert(std::atomic<bool>::is_always_lock_free,
              "Stop() is called from a signal handler");

void EventLoop::Stop() {
  stop_ = true;
  Wake();
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  Wake();
}

void EventLoop::AddFd(int fd, uint32_t events, FdCallback cb) {
  struct epoll_event ev = {};
  ev.events = ToEpoll(events);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0) {
    fds_[fd] = std::move(cb);
  }
}

void EventLoop::ModifyFd(int fd, uint32_t events) {
  struct epoll_event ev = {};
  ev.events = ToEpoll(events);
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::RemoveFd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  fds_.erase(fd);
}

EventLoop::TimerId EventLoop::AddTimer(std::chrono::microseconds delay,
                                       std::function<void()> fn) {
  TimerId id = next_timer_id_++;
  timer_fns_[id] = std::move(fn);
  timer_heap_.push(
      TimerEntry{std::chrono::steady_clock::now() + delay, id});
  return id;
}

bool EventLoop::CancelTimer(TimerId id) {
  return timer_fns_.erase(id) > 0;  // heap entry expires silently
}

int EventLoop::NextTimeoutMs(std::chrono::milliseconds cap) const {
  if (timer_fns_.empty()) {
    return cap.count() < 0 ? -1 : static_cast<int>(cap.count());
  }
  // The heap top may be cancelled, but waking early for it is harmless —
  // the loop just recomputes. Only live timers matter for correctness.
  auto now = std::chrono::steady_clock::now();
  auto until = timer_heap_.empty()
                   ? std::chrono::milliseconds(0)
                   : std::chrono::duration_cast<std::chrono::milliseconds>(
                         timer_heap_.top().deadline - now) +
                         std::chrono::milliseconds(1);
  if (until.count() < 0) until = std::chrono::milliseconds(0);
  if (cap.count() >= 0 && until > cap) until = cap;
  return static_cast<int>(until.count());
}

void EventLoop::FireDueTimers() {
  auto now = std::chrono::steady_clock::now();
  while (!timer_heap_.empty() && timer_heap_.top().deadline <= now) {
    TimerId id = timer_heap_.top().id;
    timer_heap_.pop();
    auto it = timer_fns_.find(id);
    if (it == timer_fns_.end()) continue;  // cancelled
    std::function<void()> fn = std::move(it->second);
    timer_fns_.erase(it);
    fn();
  }
}

void EventLoop::DrainPosted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::RunOnce(std::chrono::milliseconds wait) {
  struct epoll_event events[64];
  int n = ::epoll_wait(epoll_fd_, events, 64, NextTimeoutMs(wait));
  for (int i = 0; i < n; ++i) {
    int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      uint64_t drained;
      (void)!::read(wake_fd_, &drained, sizeof(drained));
      continue;
    }
    // Look up at dispatch time: an earlier callback in this batch may have
    // removed this fd, in which case its events are stale.
    auto it = fds_.find(fd);
    if (it == fds_.end()) continue;
    // Copy: the callback may RemoveFd(fd) (invalidating `it`) or close the
    // connection that owns the callback itself.
    FdCallback cb = it->second;
    cb(FromEpoll(events[i].events));
  }
  FireDueTimers();
  DrainPosted();
}

void EventLoop::Run() {
  running_ = true;
  stop_ = false;
  while (!stop_) {
    RunOnce(std::chrono::milliseconds(-1));
  }
  running_ = false;
}

}  // namespace speedkit::net
