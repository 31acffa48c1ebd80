// Fault-injectable byte transport for the serve front end.
//
// ByteIo is the syscall-shaped primitive interface the connection state
// machine (ConnFsm) reads and writes through: one recv/send attempt per
// call, with errno-style failures. SocketIo is the production
// implementation over a non-blocking TCP fd; FaultyIo is a deterministic
// in-memory double that injects short reads and writes, EINTR storms,
// exhausted readiness edges (EAGAIN), mid-frame disconnects and byte
// corruption from a seeded TransportFaultPlan (the fault/-style idiom:
// generate the whole failure schedule up front from a seed, then replay
// it). ConnFsm interprets every recv/send result itself, so a FaultyIo
// EINTR storm exercises the very retry paths a stray signal would hit in
// production.

#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "tokenring/common/rng.hpp"

namespace tokenring::serve {

/// Syscall-shaped byte I/O. Implementations mirror POSIX semantics:
/// recv/send return >0 on progress, 0 for EOF (recv only), and -1 with
/// `err` set to an errno value (EINTR, EAGAIN, ECONNRESET, EPIPE, ...).
class ByteIo {
 public:
  virtual ~ByteIo() = default;

  virtual ssize_t recv_some(char* data, std::size_t size, int& err) = 0;
  virtual ssize_t send_some(const char* data, std::size_t size, int& err) = 0;
  /// Hard-close both directions (no further reads or writes succeed).
  virtual void shutdown_both() = 0;
};

/// Production ByteIo over a connected TCP socket. The constructor switches
/// the fd to non-blocking mode, as the edge-triggered reactor requires (a
/// blocking send() to a stalled peer would park its whole shard). Does
/// not own the fd; the reactor closes it when the connection is torn
/// down.
class SocketIo final : public ByteIo {
 public:
  explicit SocketIo(int fd);

  ssize_t recv_some(char* data, std::size_t size, int& err) override;
  ssize_t send_some(const char* data, std::size_t size, int& err) override;
  void shutdown_both() override;

 private:
  int fd_;
};

/// A deterministic schedule of transport misbehaviour, fixed up front
/// (seeded) so a failing run replays exactly. Byte positions are counted
/// over the whole connection, not per call.
struct TransportFaultPlan {
  static constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

  /// Ceiling on bytes moved per recv/send call (0 = unlimited). With a
  /// seed, each call draws a size in [1, cap] instead of using the cap.
  std::size_t max_read_chunk = 0;
  std::size_t max_write_chunk = 0;
  /// EINTR failures injected before every recv/send completes.
  std::uint32_t eintr_per_op = 0;
  /// Connection drops: reads fail with ECONNRESET once this many input
  /// bytes were delivered; writes fail with EPIPE after this many output
  /// bytes were accepted.
  std::size_t reset_read_after = kNever;
  std::size_t reset_write_after = kNever;
  /// Flip one bit of the input byte at this position (wire corruption).
  std::size_t corrupt_read_at = kNever;
  /// Every Nth recv/send call fails with EAGAIN (0 = never). To ConnFsm
  /// this ends the current readiness edge, so tests can slice one frame
  /// across many on_readable()/on_writable() pumps, or model a peer that
  /// stalls (every call EAGAIN).
  std::uint32_t eagain_every = 0;
  /// Seed for per-call chunk-size draws; 0 = use the caps verbatim.
  std::uint64_t seed = 0;

  /// A randomized-but-reproducible plan: seed k always yields plan k.
  /// Covers the whole fault menu across seeds (short reads/writes, EINTR
  /// storms, early resets, corruption) without any plan being so hostile
  /// that zero requests survive.
  static TransportFaultPlan random(std::uint64_t seed);
};

/// In-memory ByteIo double: `input` is the byte stream the simulated peer
/// sends; everything the server writes accumulates in output(). Faults are
/// injected per the plan. Single-threaded by design (drive it from one
/// test thread).
class FaultyIo final : public ByteIo {
 public:
  FaultyIo(std::string input, const TransportFaultPlan& plan);

  ssize_t recv_some(char* data, std::size_t size, int& err) override;
  ssize_t send_some(const char* data, std::size_t size, int& err) override;
  void shutdown_both() override;

  const std::string& output() const { return output_; }
  bool shutdown_called() const { return shutdown_; }
  /// EINTRs injected so far (test assertion hook).
  std::uint64_t eintr_injected() const { return eintr_injected_; }

 private:
  /// True once per op while the per-op EINTR budget lasts.
  bool inject_eintr(std::uint32_t& counter);
  std::size_t chunk_limit(std::size_t requested, std::size_t cap);

  std::string input_;
  std::string output_;
  TransportFaultPlan plan_;
  Rng rng_;
  std::size_t read_pos_ = 0;
  std::uint32_t pending_recv_eintr_ = 0;
  std::uint32_t pending_send_eintr_ = 0;
  std::uint32_t recvs_called_ = 0;
  std::uint32_t sends_called_ = 0;
  std::uint64_t eintr_injected_ = 0;
  bool shutdown_ = false;
};

}  // namespace tokenring::serve
