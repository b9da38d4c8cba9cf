#pragma once

// A stackful user-space context: the unit the Coordinator runs a simulated
// rank on.
//
// A Fiber owns a guarded stack and a body. resume() switches the calling
// host thread onto that stack (ucontext swapcontext) and runs the body
// until it calls yield() or returns; yield() switches back to whichever
// thread last resumed it. A fiber may therefore be resumed by different
// threads over its life, one at a time, with the handoff ordered by the
// caller (the Coordinator's lock).
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

#include <ucontext.h>

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
  ucontext_t ctx_{};         ///< the fiber's saved context
  ucontext_t return_ctx_{};  ///< the resuming thread's saved context
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
