#include "tokenring/serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

#include "tokenring/exec/executor.hpp"
#include "tokenring/obs/registry.hpp"
#include "tokenring/serve/conn_fsm.hpp"

namespace tokenring::serve {

namespace {

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

Server::Server(const Options& options)
    : options_(options), engine_(std::make_unique<Engine>(options.engine)) {}

Server::~Server() {
  if (started_) {
    request_stop();
    wait();
  }
  close_quietly(listen_fd_);
  close_quietly(stop_pipe_[0]);
  close_quietly(stop_pipe_[1]);
}

bool Server::start(std::string& error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    error = "invalid host address: " + options_.host;
    return false;
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    error = "bind " + options_.host + ":" + std::to_string(options_.port) +
            ": " + std::strerror(errno);
    close_quietly(listen_fd_);
    return false;
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    error = std::string("listen: ") + std::strerror(errno);
    close_quietly(listen_fd_);
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  if (::pipe(stop_pipe_) != 0) {
    error = std::string("pipe: ") + std::strerror(errno);
    close_quietly(listen_fd_);
    return false;
  }

  static const obs::Gauge shard_count("serve.reactor.count");
  const std::size_t n =
      options_.reactors > 0 ? options_.reactors : exec::default_jobs();
  ConnectionLimits limits;
  limits.max_line = options_.engine.max_request_bytes;
  limits.idle_timeout_ms = options_.idle_timeout_ms;
  limits.write_timeout_ms = options_.write_timeout_ms;
  for (std::size_t i = 0; i < n; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(*engine_, limits));
    if (!reactors_.back()->start(error)) {
      reactors_.clear();
      close_quietly(listen_fd_);
      close_quietly(stop_pipe_[0]);
      close_quietly(stop_pipe_[1]);
      return false;
    }
  }
  shard_count.record(n);

  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
  return true;
}

void Server::request_stop() {
  if (stop_pipe_[1] >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  }
}

void Server::wait() {
  if (!started_) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  // Each shard half-closes its connections, answers what was buffered or
  // in flight, and exits once empty.
  for (auto& reactor : reactors_) reactor->begin_drain();
  for (auto& reactor : reactors_) reactor->join();
  engine_->drain();
  started_ = false;
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {stop_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) {
      // request_stop(). The kernel may hold handshakes no accept() has
      // collected yet; that peer's requests are already on the wire, and
      // closing the listen socket would RST them unanswered. Adopt the
      // queue (nonblocking, bounded by the backlog so a client that keeps
      // connecting cannot hold shutdown open) and let the drain answer.
      const int flags = ::fcntl(listen_fd_, F_GETFL, 0);
      if (flags >= 0) ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);
      for (int i = 0; i < options_.backlog; ++i) {
        if (!accept_and_dispatch()) break;
      }
      return;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    accept_and_dispatch();
  }
}

bool Server::accept_and_dispatch() {
  static const obs::Counter accepted("serve.connections");
  static const obs::Counter overflows("serve.accept.overflows");
  sockaddr_in peer{};
  socklen_t peer_len = sizeof(peer);
  const int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                          &peer_len);
  // accept() failures never kill the listener: EINTR (stray signal)
  // and ECONNABORTED (peer vanished between SYN and accept) are
  // routine, and anything else is at worst a transient resource limit
  // that the next poll round retries.
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      // fd or buffer exhaustion: the burst outran our limits. Counted
      // so operators can see refused accepts in stats.
      overflows.add();
    }
    return true;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  accepted.add();

  char ip[INET_ADDRSTRLEN] = "?";
  ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
  // One rate-limit bucket per peer host.
  reactors_[next_reactor_]->add_connection(fd, ip);
  next_reactor_ = (next_reactor_ + 1) % reactors_.size();
  return true;
}

}  // namespace tokenring::serve
