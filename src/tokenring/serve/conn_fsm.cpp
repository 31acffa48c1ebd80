#include "tokenring/serve/conn_fsm.hpp"

#include <cerrno>
#include <utility>

#include "tokenring/obs/registry.hpp"
#include "tokenring/serve/wire.hpp"

namespace tokenring::serve {

namespace {

/// Bump the serve.conn.* counter for a finished connection.
void note_connection_end(ConnectionEnd end) {
  static const obs::Counter idle("serve.conn.idle_timeouts");
  static const obs::Counter oversized("serve.conn.oversized");
  static const obs::Counter read_errors("serve.conn.read_errors");
  static const obs::Counter write_errors("serve.conn.write_errors");
  static const obs::Counter write_timeouts("serve.conn.write_timeouts");
  switch (end) {
    case ConnectionEnd::kIdleTimeout:
      idle.add();
      break;
    case ConnectionEnd::kOversized:
      oversized.add();
      break;
    case ConnectionEnd::kReadError:
      read_errors.add();
      break;
    case ConnectionEnd::kWriteError:
      write_errors.add();
      break;
    case ConnectionEnd::kWriteTimeout:
      write_timeouts.add();
      break;
    case ConnectionEnd::kPeerClosed:
      break;
  }
}

}  // namespace

ConnFsm::ConnFsm(ByteIo& io, const ConnectionLimits& limits, std::string peer)
    : io_(io), limits_(limits), peer_(std::move(peer)) {}

void ConnFsm::on_readable(const Submit& submit) {
  if (state_ != State::kReading) return;
  char chunk[16384];
  for (;;) {
    int err = 0;
    const ssize_t n = io_.recv_some(chunk, sizeof(chunk), err);
    if (n > 0) {
      bytes_received_ += static_cast<std::uint64_t>(n);
      buffer_.append(chunk, static_cast<std::size_t>(n));
      if (!split_lines(submit)) return;
      continue;
    }
    if (n == 0) {
      // Orderly EOF. A trailing fragment without its newline is
      // unanswerable (the request never completed); drop it.
      buffer_.clear();
      state_ = State::kDraining;
      end_ = ConnectionEnd::kPeerClosed;
      maybe_finish();
      return;
    }
    if (err == EINTR) continue;
    if (err == EAGAIN || err == EWOULDBLOCK) return;  // edge exhausted
    abort_close(ConnectionEnd::kReadError);
    return;
  }
}

bool ConnFsm::split_lines(const Submit& submit) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = buffer_.find('\n', start);
    if (nl == std::string::npos) break;
    std::string_view line(buffer_.data() + start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    start = nl + 1;
    if (line.empty()) continue;
    if (line.size() > limits_.max_line) {
      begin_oversized();
      return false;
    }
    const std::uint64_t slot = next_slot_++;
    slots_.push_back(Slot{});
    submit(line, slot);
    // submit may have completed inline and aborted the connection (write
    // error while flushing is impossible here — we never flush inside
    // complete — but an abort via expire_* from a re-entrant owner is
    // conceivable); stop cleanly if so.
    if (state_ == State::kClosed) return false;
  }
  buffer_.erase(0, start);

  // A line that keeps growing without a newline cannot be resynchronized;
  // answer once and hang up rather than buffering unboundedly. The bound
  // leaves room for a trailing '\r' that will be stripped: a fragment of
  // max_line + 1 bytes is still a valid line if it ends in CR, and one
  // byte longer is oversized however it ends, so the verdict never
  // depends on where the read split the line.
  if (buffer_.size() > limits_.max_line + 1) {
    begin_oversized();
    return false;
  }
  return true;
}

void ConnFsm::begin_oversized() {
  buffer_.clear();
  state_ = State::kDraining;
  end_ = ConnectionEnd::kOversized;
  // The 413 takes a slot like any response, so it is released to the
  // byte stream only after every earlier pipelined answer.
  const std::uint64_t slot = next_slot_++;
  slots_.push_back(Slot{});
  complete(slot, error_response(
                     "", 413,
                     "request line exceeds " +
                         std::to_string(limits_.max_line) + " bytes"));
}

void ConnFsm::complete(std::uint64_t slot, std::string&& response) {
  if (state_ == State::kClosed) return;  // aborted; response has no home
  if (slot < first_slot_) return;        // stale (already released/aborted)
  const std::uint64_t idx = slot - first_slot_;
  if (idx >= slots_.size()) return;
  Slot& s = slots_[static_cast<std::size_t>(idx)];
  s.ready = true;
  s.response = std::move(response);
  release_ready_prefix();
  maybe_finish();
}

void ConnFsm::release_ready_prefix() {
  while (!slots_.empty() && slots_.front().ready) {
    out_ += slots_.front().response;
    out_.push_back('\n');
    slots_.pop_front();
    ++first_slot_;
  }
}

void ConnFsm::on_writable() {
  while (out_pos_ < out_.size()) {
    int err = 0;
    const ssize_t n =
        io_.send_some(out_.data() + out_pos_, out_.size() - out_pos_, err);
    if (n > 0) {
      out_pos_ += static_cast<std::size_t>(n);
      bytes_sent_ += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && err == EINTR) continue;
    if (n < 0 && (err == EAGAIN || err == EWOULDBLOCK)) {
      // Kernel buffer full: compact the flushed prefix so a slow reader
      // cannot pin an ever-growing buffer, then wait for EPOLLOUT.
      if (out_pos_ > (1u << 16)) {
        out_.erase(0, out_pos_);
        out_pos_ = 0;
      }
      return;
    }
    abort_close(ConnectionEnd::kWriteError);
    return;
  }
  out_.clear();
  out_pos_ = 0;
  maybe_finish();
}

void ConnFsm::expire_idle() {
  if (state_ == State::kClosed) return;
  // An idle timeout sends nothing.
  abort_close(ConnectionEnd::kIdleTimeout);
}

void ConnFsm::expire_write() {
  if (state_ == State::kClosed) return;
  abort_close(ConnectionEnd::kWriteTimeout);
}

void ConnFsm::maybe_finish() {
  if (state_ != State::kDraining) return;
  if (!slots_.empty() || wants_write()) return;
  state_ = State::kClosed;
  io_.shutdown_both();
  note_connection_end(end_);
}

void ConnFsm::abort_close(ConnectionEnd end) {
  state_ = State::kClosed;
  end_ = end;
  out_.clear();
  out_pos_ = 0;
  slots_.clear();
  first_slot_ = next_slot_;  // stale complete() calls become no-ops
  buffer_.clear();
  io_.shutdown_both();
  note_connection_end(end_);
}

}  // namespace tokenring::serve
