#include "tokenring/serve/transport.hpp"

#include <fcntl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <utility>

namespace tokenring::serve {

// ---- SocketIo ----------------------------------------------------------------

SocketIo::SocketIo(int fd) : fd_(fd) {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

ssize_t SocketIo::recv_some(char* data, std::size_t size, int& err) {
  const ssize_t n = ::recv(fd_, data, size, 0);
  err = n < 0 ? errno : 0;
  return n;
}

ssize_t SocketIo::send_some(const char* data, std::size_t size, int& err) {
  // MSG_NOSIGNAL: a peer that hung up yields EPIPE, not a process signal.
  const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
  err = n < 0 ? errno : 0;
  return n;
}

void SocketIo::shutdown_both() { ::shutdown(fd_, SHUT_RDWR); }

// ---- TransportFaultPlan ------------------------------------------------------

TransportFaultPlan TransportFaultPlan::random(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1234'5678ULL);
  TransportFaultPlan plan;
  plan.seed = seed + 1;  // non-zero: chunk sizes are drawn, not fixed
  // Short reads/writes most runs; 1-byte dribble is the harshest framing
  // test and stays cheap.
  if (rng.bernoulli(0.8)) {
    plan.max_read_chunk = static_cast<std::size_t>(rng.uniform_int(1, 7));
  }
  if (rng.bernoulli(0.8)) {
    plan.max_write_chunk = static_cast<std::size_t>(rng.uniform_int(1, 7));
  }
  if (rng.bernoulli(0.5)) {
    plan.eintr_per_op = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
  }
  // Occasional mid-stream kills, far enough in that some requests land.
  if (rng.bernoulli(0.25)) {
    plan.reset_read_after = static_cast<std::size_t>(rng.uniform_int(16, 256));
  }
  if (rng.bernoulli(0.25)) {
    plan.reset_write_after =
        static_cast<std::size_t>(rng.uniform_int(16, 256));
  }
  if (rng.bernoulli(0.3)) {
    plan.corrupt_read_at = static_cast<std::size_t>(rng.uniform_int(0, 128));
  }
  return plan;
}

// ---- FaultyIo ----------------------------------------------------------------

FaultyIo::FaultyIo(std::string input, const TransportFaultPlan& plan)
    : input_(std::move(input)),
      plan_(plan),
      rng_(plan.seed == 0 ? 1 : plan.seed) {
  if (plan_.corrupt_read_at < input_.size()) {
    input_[plan_.corrupt_read_at] =
        static_cast<char>(input_[plan_.corrupt_read_at] ^ 0x20);
  }
}

bool FaultyIo::inject_eintr(std::uint32_t& pending) {
  if (pending == 0) return false;
  --pending;
  ++eintr_injected_;
  return true;
}

std::size_t FaultyIo::chunk_limit(std::size_t requested, std::size_t cap) {
  if (cap == 0 || cap >= requested) return requested;
  if (plan_.seed == 0) return cap;
  return static_cast<std::size_t>(
      rng_.uniform_int(1, static_cast<std::int64_t>(cap)));
}

ssize_t FaultyIo::recv_some(char* data, std::size_t size, int& err) {
  if (inject_eintr(pending_recv_eintr_)) {
    err = EINTR;
    return -1;
  }
  pending_recv_eintr_ = plan_.eintr_per_op;
  if (plan_.eagain_every > 0 && ++recvs_called_ % plan_.eagain_every == 0) {
    err = EAGAIN;
    return -1;
  }
  if (shutdown_ || read_pos_ >= plan_.reset_read_after) {
    err = ECONNRESET;
    return -1;
  }
  if (read_pos_ >= input_.size()) {
    err = 0;
    return 0;  // orderly EOF
  }
  std::size_t n = std::min(size, input_.size() - read_pos_);
  n = std::min(n, plan_.reset_read_after - read_pos_);
  n = chunk_limit(n, plan_.max_read_chunk);
  std::copy_n(input_.data() + read_pos_, n, data);
  read_pos_ += n;
  err = 0;
  return static_cast<ssize_t>(n);
}

ssize_t FaultyIo::send_some(const char* data, std::size_t size, int& err) {
  if (inject_eintr(pending_send_eintr_)) {
    err = EINTR;
    return -1;
  }
  pending_send_eintr_ = plan_.eintr_per_op;
  if (plan_.eagain_every > 0 && ++sends_called_ % plan_.eagain_every == 0) {
    err = EAGAIN;
    return -1;
  }
  if (shutdown_ || output_.size() >= plan_.reset_write_after) {
    err = EPIPE;
    return -1;
  }
  std::size_t n = std::min(size, plan_.reset_write_after - output_.size());
  n = chunk_limit(n, plan_.max_write_chunk);
  output_.append(data, n);
  err = 0;
  return static_cast<ssize_t>(n);
}

void FaultyIo::shutdown_both() { shutdown_ = true; }

}  // namespace tokenring::serve
