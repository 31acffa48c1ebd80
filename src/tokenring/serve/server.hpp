// Line-delimited-JSON TCP front end for the request Engine.
//
// A sharded, edge-triggered epoll reactor: N reactor threads (default
// exec::default_jobs()) each own an epoll instance and a shard of
// nonblocking connections; the accept loop hands new fds out round-robin
// through eventfd-signalled inboxes. Per-connection framing/overload
// state machines (ConnFsm) carry idle/write deadlines on a per-reactor
// timer wheel; compute flows through the Engine's batcher and completes
// back onto the owning reactor's wakeup queue, so a reactor thread never
// blocks on a future. Cost per connection is a table entry + epoll
// registration, so thousands of mostly-idle peers are cheap (DESIGN.md
// §4j).
//
// The accept loop polls the listen socket alongside a self-pipe;
// request_stop() is a single write() to that pipe, making it safe to call
// from a signal handler. Shutdown is graceful by construction:
//
//   request_stop() -> accept loop exits -> every connection gets
//   shutdown(SHUT_RD) -> buffered lines are answered and flushed ->
//   Engine::drain() waits out the batcher.
//
// Bind to port 0 to get an ephemeral port (tests, CI); port() reports the
// bound port after start().

#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tokenring/serve/engine.hpp"
#include "tokenring/serve/reactor.hpp"

namespace tokenring::serve {

class Server {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 binds an ephemeral port; read it back with port().
    int port = 0;
    /// Listen backlog: bursts of connect()s beyond this are queued by the
    /// kernel or refused. 1024 rides out chaos-harness accept floods.
    int backlog = 1024;
    /// Longest silence tolerated while waiting for request bytes before
    /// the connection is dropped (slow-loris guard); <= 0 waits forever.
    int idle_timeout_ms = 30000;
    /// Budget for writing one response to a peer that stopped reading;
    /// <= 0 waits forever.
    int write_timeout_ms = 10000;
    /// Reactor shards; 0 picks exec::default_jobs().
    std::size_t reactors = 0;
    Engine::Options engine;
  };

  explicit Server(const Options& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and start accepting. False (with `error` set) when the
  /// socket setup fails; the Server is then inert.
  bool start(std::string& error);

  /// Bound port (valid after start()).
  int port() const { return port_; }

  /// Begin shutdown. Async-signal-safe: one write() on the self-pipe.
  void request_stop();

  /// Block until the accept loop and every connection have finished and
  /// the engine has drained. Call after request_stop(), or to park the
  /// calling thread until a signal handler stops the server.
  void wait();

  Engine& engine() { return *engine_; }

 private:
  void accept_loop();
  /// One accept() + hand-off to the next reactor shard. False when the
  /// queue is empty (EAGAIN) -- only possible once the stop path has
  /// made the listen socket nonblocking.
  bool accept_and_dispatch();

  Options options_;
  std::unique_ptr<Engine> engine_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::size_t next_reactor_ = 0;  // round-robin cursor (accept thread only)
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  int port_ = 0;
  bool started_ = false;
  std::thread accept_thread_;
};

}  // namespace tokenring::serve
