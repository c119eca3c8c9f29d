// Child processes the benchmark starts: the addm_serve daemon under load and
// one offline addm_explore run whose report the served body must equal.
#pragma once

#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// One running addm_serve process.  The destructor stops it if stop() was
/// not called, so no daemon outlives the benchmark on any exit path.
class Daemon {
 public:
  /// Starts `argv[0]` with `argv`; stdout is redirected to stderr so the
  /// benchmark's stdout carries only its own report lines.
  explicit Daemon(const std::vector<std::string>& argv);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool running() const { return pid_ > 0; }

  /// The daemon's peak resident set size so far, in KiB (0 if unknown).
  long peak_rss_kb() const;

  /// Asks the daemon to drain (admin shutdown over `socket`), waits for it,
  /// and falls back to SIGTERM then SIGKILL.  Returns true when it drained
  /// and exited with status 0.
  bool stop(const std::string& socket);

 private:
  /// Waits up to `timeout_s` for the process to exit; true iff it exited
  /// with status 0.  running() turns false once it has been reaped.
  bool reap(double timeout_s);
  pid_t pid_ = -1;
};

/// Peak resident set size of a running process in KiB: VmHWM of its own
/// address space (0 if unknown).  Unlike wait4's ru_maxrss this excludes the
/// spawning process's memory, which a child carries until its exec.
long vm_hwm_kb(pid_t pid);

/// Runs `argv` to completion, returns its stdout in `out` and, in `rss_kb`,
/// its peak resident set size in KiB sampled every 2 ms while it runs.
/// Returns false when the program cannot start or exits with a non-zero
/// status.
bool run_capture(const std::vector<std::string>& argv, std::string& out, long* rss_kb);

}  // namespace perfbench
