#include "sim/fiber.h"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <exception>
#include <string>
#include <system_error>
#include <utility>

#include "support/error.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#define USW_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define USW_FIBER_TSAN 1
#endif

namespace usw::sim {

namespace {

/// The fiber being entered for the first time on this thread: makecontext
/// passes no pointer portably, so resume() leaves it here for entry().
thread_local Fiber* t_entering = nullptr;

std::size_t page_size() {
  static const std::size_t kPage = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return kPage;
}

/// The stack size a new pthread gets by default (RLIMIT_STACK or glibc's
/// fallback), so a rank body has the headroom a rank thread had.
std::size_t default_stack_size() {
  static const std::size_t kSize = [] {
    std::size_t size = 8U << 20;
    pthread_attr_t attr;
    if (pthread_getattr_default_np(&attr) == 0) {
      pthread_attr_getstacksize(&attr, &size);
      pthread_attr_destroy(&attr);
    }
    const std::size_t page = page_size();
    return (size + page - 1) / page * page;
  }();
  return kSize;
}

std::string errno_message() {
  return std::generic_category().message(errno);
}

}  // namespace

Fiber::Fiber(std::function<void()> body) : body_(std::move(body)) {
  const std::size_t page = page_size();
  const std::size_t stack = default_stack_size();
  map_size_ = stack + page;
  map_ = mmap(nullptr, map_size_, PROT_READ | PROT_WRITE,
              MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    throw ResourceError("cannot map a " + std::to_string(map_size_) +
                        "-byte fiber stack: " + errno_message());
  }
  // Stacks grow down: the guard page is the lowest page of the mapping.
  if (mprotect(map_, page, PROT_NONE) != 0) {
    const std::string why = errno_message();
    munmap(map_, map_size_);
    throw ResourceError("cannot guard a fiber stack: " + why);
  }
  if (getcontext(&ctx_) != 0) {
    const std::string why = errno_message();
    munmap(map_, map_size_);
    throw ResourceError("cannot create a fiber context: " + why);
  }
  ctx_.uc_stack.ss_sp = static_cast<char*>(map_) + page;
  ctx_.uc_stack.ss_size = stack;
  ctx_.uc_link = nullptr;
  makecontext(&ctx_, &Fiber::entry, 0);
#ifdef USW_FIBER_TSAN
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#ifdef USW_FIBER_TSAN
  __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (map_ != nullptr) munmap(map_, map_size_);
}

void Fiber::resume() {
  USW_ASSERT_MSG(!done_, "resuming a finished fiber");
  if (!started_) {
    started_ = true;
    t_entering = this;
  }
#ifdef USW_FIBER_ASAN
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, static_cast<char*>(map_) + page_size(),
                                 map_size_ - page_size());
#endif
#ifdef USW_FIBER_TSAN
  tsan_return_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  swapcontext(&return_ctx_, &ctx_);
#ifdef USW_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void Fiber::yield() {
  USW_ASSERT_MSG(std::uncaught_exceptions() == 0 && !std::current_exception(),
                 "a fiber may not switch while an exception is in flight or "
                 "being handled (the exception state belongs to the host thread)");
  switch_out(false);
}

void Fiber::switch_out([[maybe_unused]] bool final) {
#ifdef USW_FIBER_ASAN
  // A null save slot tells ASan this stack is being left for good.
  __sanitizer_start_switch_fiber(final ? nullptr : &asan_fake_stack_,
                                 return_stack_bottom_, return_stack_size_);
#endif
#ifdef USW_FIBER_TSAN
  __tsan_switch_to_fiber(tsan_return_, 0);
#endif
  swapcontext(&ctx_, &return_ctx_);
  // Resumed, possibly by another thread: record its stack for the next
  // switch back.
#ifdef USW_FIBER_ASAN
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &return_stack_bottom_,
                                  &return_stack_size_);
#endif
}

void Fiber::entry() {
  Fiber* self = t_entering;
  t_entering = nullptr;
#ifdef USW_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &self->return_stack_bottom_,
                                  &self->return_stack_size_);
#endif
  self->body_();
  self->done_ = true;
  self->switch_out(true);
  std::terminate();  // a finished fiber is never resumed
}

}  // namespace usw::sim
