#include "klinq/common/reactor.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>

#include "klinq/common/error.hpp"

namespace klinq {

namespace {

void set_nonblocking(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

host_port parse_host_port(std::string_view what, std::string_view spec,
                          std::string default_host) {
  host_port out{std::move(default_host), 0};
  std::string_view port_text = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string_view::npos) {
    if (colon > 0) out.host = std::string(spec.substr(0, colon));
    port_text = spec.substr(colon + 1);
  }
  unsigned value = 0;
  const char* end = port_text.data() + port_text.size();
  const auto [ptr, ec] = std::from_chars(port_text.data(), end, value);
  if (port_text.empty() || ec != std::errc{} || ptr != end || value > 65535) {
    throw invalid_argument_error(std::string(what) + ": no valid port in '" +
                                 std::string(spec) + "'");
  }
  out.port = static_cast<std::uint16_t>(value);
  return out;
}

reactor::reactor(std::string_view what, const std::string& host,
                 std::uint16_t port, int backlog) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw invalid_argument_error(std::string(what) + ": '" + host +
                                 "' is not an IPv4 address");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  const int one = 1;
  socklen_t len = sizeof(addr);
  if (listen_fd_ < 0 ||
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ||
      ::listen(listen_fd_, backlog) ||
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ||
      ::pipe(wake_)) {
    const std::string reason = std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    throw io_error(std::string(what) + ": cannot listen on " + host + ":" +
                   std::to_string(port) + " (" + reason + ")");
  }
  port_ = ntohs(addr.sin_port);
  for (const int fd : {listen_fd_, wake_[0], wake_[1]}) set_nonblocking(fd);
}

reactor::~reactor() {
  stop();
  for (const int fd : {listen_fd_, wake_[0], wake_[1]}) ::close(fd);
}

void reactor::start(owner& owner, double interval_seconds) {
  const int timeout_ms =
      std::max(1, static_cast<int>(interval_seconds * 1000.0));
  thread_ = std::thread([this, &owner, timeout_ms] { run(owner, timeout_ms); });
}

void reactor::wake() noexcept {
  const char byte = 1;
  // A full pipe is fine: a queued byte already guarantees the wake.
  [[maybe_unused]] const ssize_t n = ::write(wake_[1], &byte, 1);
}

void reactor::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  wake();
  if (thread_.joinable()) thread_.join();
}

void reactor::run(owner& owner, int timeout_ms) {
  std::vector<pollfd> fds;
  while (!stopping_.load(std::memory_order_relaxed)) {
    fds.clear();
    fds.push_back({wake_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    owner.collect(fds);
    ::poll(fds.data(), fds.size(), timeout_ms);
    if (stopping_.load(std::memory_order_relaxed)) return;
    char drain[64];
    while ((fds[0].revents & POLLIN) &&
           ::read(wake_[0], drain, sizeof(drain)) > 0) {
    }
    owner.on_ready(std::span<const pollfd>(fds).subspan(2));
    while (fds[1].revents & POLLIN) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;  // EAGAIN: the backlog is empty
      }
      set_nonblocking(fd);
      const int one = 1;  // best effort: latency tuning, not correctness
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      owner.on_accept(fd);
    }
    owner.on_tick();
  }
}

}  // namespace klinq
