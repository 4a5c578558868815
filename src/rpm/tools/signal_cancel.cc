#include "rpm/tools/signal_cancel.h"

#include <unistd.h>

#include <atomic>

namespace rpm::tools {

namespace {

std::atomic<rpm::CancellationToken*> g_token{nullptr};
std::atomic<int> g_signal_count{0};

// Async-signal-safe by construction: lock-free atomics and _exit only.
void HandleSignal(int /*sig*/) {
  if (g_signal_count.fetch_add(1, std::memory_order_acq_rel) >= 1) {
    _exit(130);  // Second signal: stop immediately, no drain.
  }
  rpm::CancellationToken* token =
      g_token.load(std::memory_order_acquire);
  if (token != nullptr) token->Cancel();
}

}  // namespace

ScopedSignalCancellation::ScopedSignalCancellation(
    CancellationToken* token) {
  g_signal_count.store(0, std::memory_order_release);
  g_token.store(token, std::memory_order_release);
  struct sigaction action;
  sigemptyset(&action.sa_mask);
  action.sa_handler = HandleSignal;
  action.sa_flags = 0;  // No SA_RESTART: blocked syscalls return EINTR.
  sigaction(SIGINT, &action, &old_int_);
  sigaction(SIGTERM, &action, &old_term_);
}

ScopedSignalCancellation::~ScopedSignalCancellation() {
  sigaction(SIGINT, &old_int_, nullptr);
  sigaction(SIGTERM, &old_term_, nullptr);
  g_token.store(nullptr, std::memory_order_release);
}

}  // namespace rpm::tools
