#include "daemon.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <spawn.h>
#include <poll.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "serve/client.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::vector<char*> c_argv(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  for (const std::string& a : argv) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

}  // namespace

Daemon::Daemon(const std::vector<std::string>& argv) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, STDERR_FILENO, STDOUT_FILENO);
  std::vector<char*> args = c_argv(argv);
  pid_t pid = -1;
  if (posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ) == 0) pid_ = pid;
  posix_spawn_file_actions_destroy(&fa);
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  if (!reap(5.0) && pid_ > 0) {
    ::kill(pid_, SIGKILL);
    reap(5.0);
  }
}

long vm_hwm_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  return 0;
}

long Daemon::peak_rss_kb() const { return pid_ > 0 ? vm_hwm_kb(pid_) : 0; }

bool Daemon::reap(double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (pid_ > 0) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    if (r < 0 && errno != EINTR) {
      pid_ = -1;
      return false;
    }
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

bool Daemon::stop(const std::string& socket) {
  if (pid_ <= 0) return false;
  addm::serve::ServeClient client;
  std::string err;
  addm::serve::ServeClient::Result res;
  if (client.connect_unix(socket, err)) client.admin("shutdown", res, err);
  client.close();
  const bool drained = reap(10.0);
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    if (!reap(5.0) && pid_ > 0) {
      ::kill(pid_, SIGKILL);
      reap(5.0);
    }
    return false;
  }
  return drained;
}

bool run_capture(const std::vector<std::string>& argv, std::string& out, long* rss_kb) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  std::vector<char*> args = c_argv(argv);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    return false;
  }
  char buf[65536];
  *rss_kb = 0;
  for (;;) {
    *rss_kb = std::max(*rss_kb, vm_hwm_kb(pid));
    pollfd pfd{fds[0], POLLIN, 0};
    if (::poll(&pfd, 1, 2) == 0) continue;
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
