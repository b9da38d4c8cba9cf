#include "sim/fiber.h"

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
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

#if defined(__x86_64__)
extern "C" void usw_fiber_switch(void** save_sp, void* load_sp);
#endif

namespace usw::sim {

namespace {

/// Saves the running context into `from` and resumes `to`.
#if defined(__x86_64__)
void switch_context(void** from, void* const* to) { usw_fiber_switch(from, *to); }

/// The calling thread's MXCSR (low 32 bits) and x87 control word (next
/// 16), laid out as usw_fiber_switch stores them.
std::uint64_t fp_control_word() {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87 = 0;
  __asm__ volatile("stmxcsr %0" : "=m"(mxcsr));
  __asm__ volatile("fnstcw %0" : "=m"(x87));
  return mxcsr | (static_cast<std::uint64_t>(x87) << 32);
}
#else
void switch_context(ucontext_t* from, const ucontext_t* to) { swapcontext(from, to); }
#endif

/// The fiber being entered for the first time on this thread: the first
/// switch passes no argument, so resume() leaves it here for entry().
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
#if defined(__x86_64__)
  // The first switch pops usw_fiber_switch's frame (see its layout) from
  // the top of the stack and returns into entry() with the stack pointer
  // 8 below a 16-byte boundary, as after a call. The FP control state is
  // the creating thread's, as getcontext would capture it; the slot above
  // the return address is entry()'s (never used) return address.
  auto* frame = reinterpret_cast<std::uint64_t*>(static_cast<char*>(map_) + map_size_) - 9;
  frame[0] = fp_control_word();
  for (int i = 1; i <= 6; ++i) frame[i] = 0;  // r15, r14, r13, r12, rbx, rbp
  frame[7] = reinterpret_cast<std::uintptr_t>(&Fiber::entry);
  frame[8] = 0;
  ctx_ = frame;
#else
  if (getcontext(&ctx_) != 0) {
    const std::string why = errno_message();
    munmap(map_, map_size_);
    throw ResourceError("cannot create a fiber context: " + why);
  }
  ctx_.uc_stack.ss_sp = static_cast<char*>(map_) + page;
  ctx_.uc_stack.ss_size = stack;
  ctx_.uc_link = nullptr;
  makecontext(&ctx_, &Fiber::entry, 0);
#endif
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
  switch_context(&return_ctx_, &ctx_);
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
  switch_context(&ctx_, &return_ctx_);
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
