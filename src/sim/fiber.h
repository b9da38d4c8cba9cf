#pragma once

// A stackful user-space context: the unit the Coordinator runs a simulated
// rank on.
//
// A Fiber owns a guarded stack and a body. resume() switches the calling
// host thread onto that stack and runs the body until it calls yield() or
// returns; yield() switches back to whichever thread last resumed it. A
// fiber may therefore be resumed by different threads over its life, one
// at a time, with the handoff ordered by the caller (the Coordinator's
// lock).
//
// The switch. On x86-64 it is usw_fiber_switch (fiber_switch_x86_64.S):
// it saves the callee-saved registers, MXCSR and the x87 control word on
// the stack being left and restores them from the other, so a rounding
// mode or FP exception mask set inside a fiber stays with that fiber. It
// makes no system call; the signal mask belongs to the host thread and is
// not switched. Elsewhere it is ucontext's swapcontext, which also saves
// the FP environment but issues an rt_sigprocmask per switch.
//
// CET shadow stacks. The x86-64 switch returns on a stack the shadow
// stack never saw, which would fault with shadow stacks enforced. Its
// object carries no .note.gnu.property, so the linker does not mark the
// program shadow-stack (or IBT) compatible, and the loader leaves both
// off even in a -fcf-protection build.
//
// Switching rules the caller must keep:
//  - no mutex may be held across yield() (it could be released on another
//    thread), and
//  - no fiber may yield while an exception is in flight or being handled:
//    the C++ runtime keeps its caught-exception stack and uncaught count per
//    host thread, so a switch there would hand them to another fiber.
//    yield() asserts both exception conditions.
//
// The stack is sized like a default pthread stack, with a PROT_NONE guard
// page below it; nothing pre-touches it, so resident memory follows the
// pages the body actually uses. Switches are annotated for AddressSanitizer
// and ThreadSanitizer when those are enabled.

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <functional>

namespace usw::sim {

class Fiber {
 public:
  /// Allocates the stack; `body` runs on the first resume() and must not
  /// throw (nothing above it on the fiber's stack could catch it).
  explicit Fiber(std::function<void()> body);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber on the calling thread until it yields or its body
  /// returns. Must not be called from inside a fiber or after done().
  void resume();

  /// Called by the running fiber: switches back to the resuming thread.
  void yield();

  /// True once the body has returned.
  bool done() const { return done_; }

 private:
  static void entry();
  /// Switches from the fiber's stack back to the resumer's.
  void switch_out(bool final);

  std::function<void()> body_;
  void* map_ = nullptr;  ///< mmap'd guard page + stack
  std::size_t map_size_ = 0;
#if defined(__x86_64__)
  using Context = void*;  ///< a saved stack pointer (fiber_switch_x86_64.S)
#else
  using Context = ucontext_t;
#endif
  Context ctx_{};         ///< the fiber's saved context
  Context return_ctx_{};  ///< the resuming thread's saved context
  bool started_ = false;
  bool done_ = false;
  // Sanitizer bookkeeping (unused without sanitizers).
  void* asan_fake_stack_ = nullptr;
  const void* return_stack_bottom_ = nullptr;
  std::size_t return_stack_size_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_return_ = nullptr;
};

}  // namespace usw::sim
