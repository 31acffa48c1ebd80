// Per-connection state machine of the serve front end.
//
// A reactor owns thousands of connections per thread, so each one's
// framing and overload rules live in a resumable machine driven by
// readiness events:
//
//   on_readable()  — pump recv until EAGAIN/EOF, split complete lines,
//                    hand each to the submit callback with a response slot
//   complete()     — a response landed (inline or from a pool thread via
//                    the reactor's wakeup queue); buffered for writing
//   on_writable()  — flush the out-buffer until EAGAIN or empty
//
// Framing contract: lines split on '\n' with a trailing '\r' stripped,
// empty lines ignored, oversized lines (complete or still-growing)
// answered with one 413 and then the connection closes, a trailing
// fragment at EOF is dropped unanswered. The verdict depends only on the
// bytes, never on how TCP chunked them: a line that overflowed mid-read
// has no trustworthy resynchronization point, so complete-but-oversized
// lines close the connection too.
//
// Pipelining keeps strict request order even though compute may finish
// out of order: each submitted line gets a monotonically increasing slot,
// and responses are released to the out-buffer only when every earlier
// slot has been released.
//
// The machine is transport-agnostic over ByteIo and never waits, so
// FaultyIo fault plans — short reads, EINTR storms, injected EAGAIN
// readiness edges, resets — drive it in tests exactly like the kernel
// drives it in production. Timeouts live outside: the machine only
// exposes the bookkeeping (bytes moved, pending work) that the reactor's
// timer wheel needs to decide idle/write expiry.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>

#include "tokenring/serve/transport.hpp"

namespace tokenring::serve {

struct ConnectionLimits {
  /// Request lines longer than this are answered with a 413 and the
  /// connection is closed.
  std::size_t max_line = 1 << 20;
  /// Longest silence tolerated while waiting for request bytes
  /// [milliseconds]; <= 0 waits forever.
  int idle_timeout_ms = 30000;
  /// Budget for flushing responses to a peer that stopped reading; <= 0
  /// waits forever.
  int write_timeout_ms = 10000;
};

/// Why a connection finished (either the peer ended it or we shut it
/// down).
enum class ConnectionEnd {
  kPeerClosed,    // orderly EOF from the peer
  kIdleTimeout,   // no bytes within idle_timeout_ms
  kOversized,     // 413 answered, connection closed
  kReadError,     // connection reset or unrecoverable read failure
  kWriteError,    // peer gone while writing a response
  kWriteTimeout,  // peer stopped reading
};

class ConnFsm {
 public:
  /// Called for each complete request line (no newline, '\r' stripped).
  /// The callee must eventually call complete(slot, response) exactly
  /// once; calling it re-entrantly from inside submit is allowed.
  using Submit =
      std::function<void(std::string_view line, std::uint64_t slot)>;

  ConnFsm(ByteIo& io, const ConnectionLimits& limits, std::string peer);

  ConnFsm(const ConnFsm&) = delete;
  ConnFsm& operator=(const ConnFsm&) = delete;

  const std::string& peer() const { return peer_; }

  /// A readiness edge on the read side: pump until EAGAIN, EOF, or error.
  void on_readable(const Submit& submit);

  /// Deliver the response for `slot`. In-order ready responses move to
  /// the out-buffer; the owner should flush (on_writable) afterwards.
  /// Stale slots on an aborted connection are ignored.
  void complete(std::uint64_t slot, std::string&& response);

  /// A readiness edge on the write side (or "try to flush now").
  void on_writable();

  // Graceful drain needs no dedicated entry point: the owner calls
  // shutdown(SHUT_RD) on the fd and pumps on_readable — the kernel hands
  // over whatever the client already sent, then EOF, and the machine
  // answers the buffered lines before finishing.

  /// Timer verdicts, decided by the owner's wheel.
  void expire_idle();
  void expire_write();

  /// Bytes still queued for the peer (flush wanted).
  bool wants_write() const { return out_pos_ < out_.size(); }
  /// Still accepting request bytes.
  bool reading() const { return state_ == State::kReading; }
  /// Responses not yet released (submitted or queued out of order).
  std::size_t pending() const { return slots_.size(); }
  /// Nothing in flight and nothing buffered: the idle timeout may apply.
  bool idle() const { return slots_.empty() && !wants_write(); }
  /// Fully over: the owner should deregister and close the fd.
  bool finished() const { return state_ == State::kClosed; }
  ConnectionEnd end() const { return end_; }

  /// Monotonic totals for the owner's timer bookkeeping: progress since
  /// the last check re-arms the corresponding deadline.
  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  enum class State {
    kReading,   // accepting request bytes
    kDraining,  // no more reads; answering what is pending, then closing
    kClosed,    // done (orderly or aborted)
  };

  struct Slot {
    bool ready = false;
    std::string response;
  };

  /// Split buffer_ into complete lines and submit them. False when the
  /// connection stopped reading (oversized).
  bool split_lines(const Submit& submit);
  void begin_oversized();
  void release_ready_prefix();
  void maybe_finish();
  void abort_close(ConnectionEnd end);

  ByteIo& io_;
  ConnectionLimits limits_;
  std::string peer_;

  State state_ = State::kReading;
  ConnectionEnd end_ = ConnectionEnd::kPeerClosed;

  std::string buffer_;  // partial request line
  std::string out_;     // response bytes not yet accepted by the kernel
  std::size_t out_pos_ = 0;

  std::deque<Slot> slots_;
  std::uint64_t next_slot_ = 0;   // id assigned to the next submitted line
  std::uint64_t first_slot_ = 0;  // id of slots_.front()

  std::uint64_t bytes_received_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace tokenring::serve
