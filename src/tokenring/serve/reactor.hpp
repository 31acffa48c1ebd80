// One shard of the event-driven serve front end.
//
// A Reactor owns an epoll instance, an eventfd wakeup, a timer wheel, and
// the connections the accept loop assigned to it (round-robin). All
// connection state is touched only from the reactor's own event-loop
// thread — there is no per-connection locking anywhere:
//
//   * The accept loop hands new fds over through a mutex-guarded inbox
//     and rings the eventfd.
//   * Compute finishes on a batcher pool thread; the engine completion
//     posts the response into the same inbox (keyed by (fd, generation)
//     so a response for a connection that died in the meantime is
//     dropped, never delivered to an fd the kernel reused), and rings the
//     eventfd. Completions that happen to land on the event-loop thread
//     itself (inline refusals, cache hits) skip the inbox entirely.
//   * Idle and write deadlines live in the timer wheel; epoll_wait's
//     timeout is one wheel tick while any timer is armed, infinite
//     otherwise — so a reactor with only parked idle connections costs a
//     bounded ~100 wakeups/s, not one thread stack and scheduler slot
//     per connection.
//
// Sockets are registered edge-triggered (EPOLLIN|EPOLLOUT|EPOLLET), so
// there is no epoll_ctl churn on the hot path; the ConnFsm pumps reads
// and writes to EAGAIN as edge-triggering requires. Graceful drain:
// begin_drain() half-closes every connection (shutdown(SHUT_RD)), the
// FSMs consume what the kernel already buffered, answer it, flush, and
// the loop exits once the shard is empty.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "tokenring/serve/conn_fsm.hpp"
#include "tokenring/serve/engine.hpp"
#include "tokenring/serve/timer_wheel.hpp"
#include "tokenring/serve/transport.hpp"

namespace tokenring::serve {

class Reactor {
 public:
  Reactor(Engine& engine, const ConnectionLimits& limits);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Create the epoll/eventfd plumbing and start the event loop.
  bool start(std::string& error);

  /// Adopt a connected socket (the reactor owns and closes it). Thread
  /// safe; called from the accept loop.
  void add_connection(int fd, std::string peer);

  /// Begin graceful drain: half-close every connection, answer what is
  /// already buffered or in flight, exit the loop when the shard is
  /// empty. Thread safe.
  void begin_drain();

  /// Join the event loop (begin_drain() must have been called, or no
  /// connections may remain pending forever).
  void join();

 private:
  struct Conn {
    int fd;
    std::uint64_t gen;
    SocketIo io;
    ConnFsm fsm;
    TimerWheel::Id idle_timer = 0;
    TimerWheel::Id write_timer = 0;
    bool idle_armed = false;
    bool write_armed = false;
    /// Progress snapshots the timer policy compares against.
    std::uint64_t last_activity_ns = 0;
    std::uint64_t seen_received = 0;
    std::uint64_t sent_at_write_arm = 0;

    Conn(int fd_in, std::uint64_t gen_in, const ConnectionLimits& limits,
         std::string peer)
        : fd(fd_in), gen(gen_in), io(fd_in),
          fsm(io, limits, std::move(peer)) {}
  };

  struct PendingConn {
    int fd;
    std::string peer;
  };

  struct PendingCompletion {
    int fd;
    std::uint64_t gen;
    std::uint64_t slot;
    std::string response;
  };

  void loop();
  void ring();  // eventfd wakeup
  Conn* find(int fd);
  void pump_read(Conn& conn);
  void submit_line(Conn& conn, std::string_view line, std::uint64_t slot);
  void deliver(int fd, std::uint64_t gen, std::uint64_t slot,
               std::string&& response, std::uint64_t now_ns);
  void process_inbox(std::uint64_t now_ns, std::vector<int>& touched);
  void adopt(PendingConn&& pending, std::uint64_t now_ns,
             std::vector<int>& touched);
  void enter_drain(std::uint64_t now_ns, std::vector<int>& touched);
  /// Flush, update timers, tear down if finished. Safe to call twice per
  /// round for the same fd (second call finds the conn gone or idempotent
  /// state).
  void finalize(int fd, std::uint64_t now_ns);
  void handle_timer(const TimerWheel::Expired& fired, std::uint64_t now_ns);
  void teardown(Conn& conn);

  Engine& engine_;
  ConnectionLimits limits_;

  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::thread thread_;
  std::thread::id loop_thread_id_;

  TimerWheel wheel_;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_gen_ = 1;
  std::uint64_t now_ns_ = 0;  // refreshed each loop round
  bool draining_ = false;

  std::mutex inbox_mutex_;
  std::vector<PendingConn> inbox_conns_;
  std::vector<PendingCompletion> inbox_completions_;
  bool drain_requested_ = false;
};

}  // namespace tokenring::serve
