#include "tokenring/serve/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "tokenring/common/clock.hpp"
#include "tokenring/obs/registry.hpp"

namespace tokenring::serve {

namespace {

// Timer payloads pack the connection fd and which deadline fired.
constexpr std::uint64_t kIdleKind = 0;
constexpr std::uint64_t kWriteKind = 1;

std::uint64_t timer_payload(int fd, std::uint64_t kind) {
  return (static_cast<std::uint64_t>(fd) << 1) | kind;
}

std::uint64_t ms_to_ns(int ms) {
  return static_cast<std::uint64_t>(ms) * 1'000'000ULL;
}

}  // namespace

Reactor::Reactor(Engine& engine, const ConnectionLimits& limits)
    : engine_(engine), limits_(limits) {}

Reactor::~Reactor() {
  if (thread_.joinable()) {
    begin_drain();
    thread_.join();
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
}

bool Reactor::start(std::string& error) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    error = std::string("epoll_create1: ") + std::strerror(errno);
    return false;
  }
  event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd_ < 0) {
    error = std::string("eventfd: ") + std::strerror(errno);
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: drained fully on every wakeup
  ev.data.fd = event_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
    error = std::string("epoll_ctl(eventfd): ") + std::strerror(errno);
    ::close(epoll_fd_);
    ::close(event_fd_);
    epoll_fd_ = event_fd_ = -1;
    return false;
  }
  thread_ = std::thread([this] { loop(); });
  return true;
}

void Reactor::ring() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(event_fd_, &one, sizeof(one));
}

void Reactor::add_connection(int fd, std::string peer) {
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    inbox_conns_.push_back({fd, std::move(peer)});
  }
  ring();
}

void Reactor::begin_drain() {
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    drain_requested_ = true;
  }
  ring();
}

void Reactor::join() {
  if (thread_.joinable()) thread_.join();
}

Reactor::Conn* Reactor::find(int fd) {
  const auto it = conns_.find(fd);
  return it == conns_.end() ? nullptr : it->second.get();
}

void Reactor::loop() {
  static const obs::Counter wakeups("serve.reactor.wakeups");
  loop_thread_id_ = std::this_thread::get_id();

  epoll_event events[256];
  std::vector<int> touched;
  std::vector<TimerWheel::Expired> fired;
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, events,
                               static_cast<int>(std::size(events)),
                               wheel_.poll_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone: nothing sane left to do
    }
    wakeups.add();
    now_ns_ = steady_now_ns();
    touched.clear();
    bool rang = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == event_fd_) {
        std::uint64_t drainer = 0;
        while (::read(event_fd_, &drainer, sizeof(drainer)) > 0) {
        }
        rang = true;
        continue;
      }
      Conn* conn = find(fd);
      if (conn == nullptr) continue;  // torn down earlier this round
      if ((events[i].events &
           (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
        pump_read(*conn);
      }
      if ((events[i].events & EPOLLOUT) != 0 && !conn->fsm.finished()) {
        conn->fsm.on_writable();
      }
      touched.push_back(fd);
    }

    if (rang) process_inbox(now_ns_, touched);

    for (const int fd : touched) finalize(fd, now_ns_);

    fired.clear();
    wheel_.expire(now_ns_, fired);
    for (const TimerWheel::Expired& t : fired) handle_timer(t, now_ns_);

    if (draining_ && conns_.empty()) return;
  }
}

void Reactor::process_inbox(std::uint64_t now_ns, std::vector<int>& touched) {
  std::vector<PendingConn> new_conns;
  std::vector<PendingCompletion> completions;
  bool drain = false;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    new_conns.swap(inbox_conns_);
    completions.swap(inbox_completions_);
    drain = drain_requested_;
  }
  for (PendingConn& pending : new_conns) {
    adopt(std::move(pending), now_ns, touched);
  }
  for (PendingCompletion& completion : completions) {
    static const obs::Counter posted("serve.reactor.completions");
    posted.add();
    deliver(completion.fd, completion.gen, completion.slot,
            std::move(completion.response), now_ns);
    touched.push_back(completion.fd);
  }
  if (drain && !draining_) enter_drain(now_ns, touched);
}

void Reactor::adopt(PendingConn&& pending, std::uint64_t now_ns,
                    std::vector<int>& touched) {
  static const obs::Counter opened("serve.conn.opened");
  static const obs::Gauge peak("serve.reactor.peak_conns");
  if (draining_) {
    // The accept loop stops before drain begins, but close defensively:
    // a connection adopted now could never be served to completion.
    ::shutdown(pending.fd, SHUT_RDWR);
    ::close(pending.fd);
    return;
  }
  const int fd = pending.fd;
  auto conn = std::make_unique<Conn>(fd, next_gen_++, limits_,
                                     std::move(pending.peer));
  conn->last_activity_ns = now_ns;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  if (limits_.idle_timeout_ms > 0) {
    conn->idle_timer = wheel_.arm(now_ns + ms_to_ns(limits_.idle_timeout_ms),
                                  timer_payload(fd, kIdleKind));
    conn->idle_armed = true;
  }
  opened.add();
  conns_.emplace(fd, std::move(conn));
  peak.record(conns_.size());
  // Bytes may have raced ahead of the registration; with edge triggering
  // the kernel reports readiness present at ADD time, but pumping once
  // here costs one EAGAIN and removes any reliance on that subtlety.
  pump_read(*find(fd));
  touched.push_back(fd);
}

void Reactor::enter_drain(std::uint64_t now_ns, std::vector<int>& touched) {
  draining_ = true;
  // Half-close every connection: the kernel hands the FSM whatever the
  // client already sent, then EOF; buffered requests are answered, then
  // the connection finishes.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) {
    Conn* conn = find(fd);
    if (conn == nullptr) continue;
    ::shutdown(fd, SHUT_RD);
    pump_read(*conn);
    touched.push_back(fd);
  }
  (void)now_ns;
}

void Reactor::pump_read(Conn& conn) {
  conn.fsm.on_readable([this, &conn](std::string_view line,
                                     std::uint64_t slot) {
    submit_line(conn, line, slot);
  });
}

void Reactor::submit_line(Conn& conn, std::string_view line,
                          std::uint64_t slot) {
  const int fd = conn.fd;
  const std::uint64_t gen = conn.gen;
  engine_.handle_line_async(
      line, conn.fsm.peer(),
      [this, fd, gen, slot](std::string&& response) {
        if (std::this_thread::get_id() == loop_thread_id_) {
          // Inline completion (refusal, ping/stats, cache hit): the
          // connection is alive — we are inside its pump.
          deliver(fd, gen, slot, std::move(response), now_ns_);
        } else {
          {
            std::lock_guard<std::mutex> lock(inbox_mutex_);
            inbox_completions_.push_back(
                {fd, gen, slot, std::move(response)});
          }
          ring();
        }
      });
}

void Reactor::deliver(int fd, std::uint64_t gen, std::uint64_t slot,
                      std::string&& response, std::uint64_t now_ns) {
  Conn* conn = find(fd);
  if (conn == nullptr || conn->gen != gen) return;  // connection died
  conn->fsm.complete(slot, std::move(response));
  conn->last_activity_ns = now_ns;
}

void Reactor::finalize(int fd, std::uint64_t now_ns) {
  Conn* conn = find(fd);
  if (conn == nullptr) return;
  if (!conn->fsm.finished() && conn->fsm.wants_write()) {
    conn->fsm.on_writable();
  }
  if (conn->fsm.finished()) {
    teardown(*conn);
    return;
  }
  if (conn->fsm.bytes_received() != conn->seen_received) {
    conn->seen_received = conn->fsm.bytes_received();
    conn->last_activity_ns = now_ns;
  }
  if (limits_.write_timeout_ms > 0) {
    if (conn->fsm.wants_write() && !conn->write_armed) {
      conn->write_timer =
          wheel_.arm(now_ns + ms_to_ns(limits_.write_timeout_ms),
                     timer_payload(fd, kWriteKind));
      conn->sent_at_write_arm = conn->fsm.bytes_sent();
      conn->write_armed = true;
    } else if (!conn->fsm.wants_write() && conn->write_armed) {
      wheel_.cancel(conn->write_timer);
      conn->write_armed = false;
    }
  }
}

void Reactor::handle_timer(const TimerWheel::Expired& fired,
                           std::uint64_t now_ns) {
  const int fd = static_cast<int>(fired.payload >> 1);
  const std::uint64_t kind = fired.payload & 1;
  Conn* conn = find(fd);
  if (conn == nullptr) return;

  if (kind == kIdleKind) {
    if (fired.id != conn->idle_timer) return;  // stale
    conn->idle_armed = false;
    const std::uint64_t idle_ns = ms_to_ns(limits_.idle_timeout_ms);
    const std::uint64_t deadline = conn->last_activity_ns + idle_ns;
    // The idle clock only runs while we are waiting for request bytes:
    // in-flight compute or a pending flush re-arms a full window, so the
    // idle budget restarts after each response.
    if (conn->fsm.idle() && conn->fsm.reading() && now_ns >= deadline) {
      conn->fsm.expire_idle();
      teardown(*conn);
      return;
    }
    const std::uint64_t next =
        conn->fsm.idle() ? deadline : now_ns + idle_ns;
    conn->idle_timer = wheel_.arm(next, timer_payload(fd, kIdleKind));
    conn->idle_armed = true;
    return;
  }

  // Write deadline: progress since arming re-arms (a slow-but-moving
  // peer is bounded per write_timeout per burst of progress); a fully
  // stalled peer is cut off.
  if (fired.id != conn->write_timer) return;  // stale
  conn->write_armed = false;
  if (!conn->fsm.wants_write()) return;
  if (conn->fsm.bytes_sent() != conn->sent_at_write_arm) {
    conn->write_timer =
        wheel_.arm(now_ns + ms_to_ns(limits_.write_timeout_ms),
                   timer_payload(fd, kWriteKind));
    conn->sent_at_write_arm = conn->fsm.bytes_sent();
    conn->write_armed = true;
    return;
  }
  conn->fsm.expire_write();
  teardown(*conn);
}

void Reactor::teardown(Conn& conn) {
  static const obs::Counter closed("serve.conn.closed");
  if (conn.idle_armed) wheel_.cancel(conn.idle_timer);
  if (conn.write_armed) wheel_.cancel(conn.write_timer);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  closed.add();
  conns_.erase(conn.fd);  // destroys conn
}

}  // namespace tokenring::serve
