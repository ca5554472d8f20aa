#include "exec/thread_pool.hpp"

#include <chrono>

namespace lpomp::exec {

WorkStealingPool::WorkStealingPool(unsigned workers) {
  unsigned n = workers != 0 ? workers : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  queues_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  wait_idle();
  {
    std::lock_guard lock(state_mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkStealingPool::submit(std::function<void()> fn) {
  std::size_t target;
  {
    std::lock_guard lock(state_mutex_);
    ++unfinished_;
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  {
    std::lock_guard lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void WorkStealingPool::wait_idle() {
  std::unique_lock lock(state_mutex_);
  idle_cv_.wait(lock, [this] { return unfinished_ == 0; });
}

bool WorkStealingPool::pop_own(std::size_t self, std::function<void()>& out) {
  Queue& q = *queues_[self];
  std::lock_guard lock(q.mutex);
  if (q.tasks.empty()) return false;
  out = std::move(q.tasks.back());  // LIFO from own end
  q.tasks.pop_back();
  return true;
}

bool WorkStealingPool::steal_other(std::size_t self,
                                   std::function<void()>& out) {
  const std::size_t n = queues_.size();
  for (std::size_t d = 1; d < n; ++d) {
    Queue& victim = *queues_[(self + d) % n];
    std::lock_guard lock(victim.mutex);
    if (victim.tasks.empty()) continue;
    out = std::move(victim.tasks.front());  // FIFO from the victim's end
    victim.tasks.pop_front();
    return true;
  }
  return false;
}

void WorkStealingPool::worker_loop(std::size_t self) {
  for (;;) {
    std::function<void()> task;
    if (pop_own(self, task) || steal_other(self, task)) {
      task();
      // Destroy the closure (and anything it owns — e.g. the last refs to a
      // fused group's trace and compiled plan) BEFORE signalling completion:
      // wait_idle() returning must mean all task state is gone, not merely
      // executed, or the teardown cost leaks into whatever runs next.
      task = nullptr;
      std::lock_guard lock(state_mutex_);
      if (--unfinished_ == 0) idle_cv_.notify_all();
      continue;
    }
    std::unique_lock lock(state_mutex_);
    if (stopping_) return;
    // Re-check under the lock: a task may have landed between the failed
    // scan and acquiring the lock; waking spuriously is harmless.
    work_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

}  // namespace lpomp::exec
