// SIGINT/SIGTERM -> CancellationToken bridge for long-running rpminer
// subcommands (mine, verify, serve).
//
// First signal: cancel. The installed handler only performs async-signal-
// safe work — one atomic counter bump and CancellationToken::Cancel (an
// atomic store) — and the command's normal machinery turns that into a
// deterministic, prefix-committed early stop: mine flushes the committed
// pattern prefix and exits 2 (CANCELLED), verify reports the trials
// completed so far, serve drains. Second signal: the user means it —
// hard _exit(130) without waiting for the drain.
//
// Scoped RAII: handlers are installed on construction and the previous
// dispositions restored on destruction, so tests (and nested uses) cannot
// leak a handler pointing at a dead token.

#ifndef RPM_TOOLS_SIGNAL_CANCEL_H_
#define RPM_TOOLS_SIGNAL_CANCEL_H_

#include <csignal>

#include "rpm/core/cancellation.h"

namespace rpm::tools {

class ScopedSignalCancellation {
 public:
  /// Routes SIGINT and SIGTERM to `token` (not owned, must outlive the
  /// scope). Only one scope may be live at a time.
  explicit ScopedSignalCancellation(CancellationToken* token);
  ~ScopedSignalCancellation();

  ScopedSignalCancellation(const ScopedSignalCancellation&) = delete;
  ScopedSignalCancellation& operator=(const ScopedSignalCancellation&) =
      delete;

 private:
  struct sigaction old_int_;
  struct sigaction old_term_;
};

}  // namespace rpm::tools

#endif  // RPM_TOOLS_SIGNAL_CANCEL_H_
