// Unix-domain-socket front end for MatchServer.
//
// A deliberately thin layer: UdsServer accepts stream connections on a
// filesystem socket and, per connection, loops read_frame -> decode ->
// MatchServer::solve -> encode -> write_frame. All concurrency policy
// (worker pool, shared solves, admission control, cardinality audit)
// lives in MatchServer; this file only moves frames. Each connection gets its
// own thread because a connection is a session of blocking
// request/response exchanges and MatchServer::solve already applies
// backpressure via rejected responses.
//
// Connection lifecycle discipline (the ordering is the point):
//  * a serving thread DEREGISTERS its fd from the connection table
//    (under the lock) BEFORE calling ::close() on it, so stop() can
//    never shutdown() an fd number the kernel has already recycled for
//    a new connection or any other subsystem;
//  * finished connection entries are reaped (joined and erased) by the
//    accept loop on every iteration, so the table stays proportional to
//    LIVE connections instead of growing for the server's lifetime.
//
// Shutdown: the accept loop polls with a short timeout so stop() can
// ask it to exit, and open connection fds are shutdown() so blocked
// reads return; every spawned thread is joined before stop() returns.
#pragma once

#include <atomic>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "graftmatch/serve/protocol.hpp"
#include "graftmatch/serve/server.hpp"

namespace graftmatch::serve {

class UdsServer {
 public:
  /// `server` must outlive this object. The socket is not created until
  /// start().
  UdsServer(MatchServer& server, std::string socket_path);
  ~UdsServer();
  UdsServer(const UdsServer&) = delete;
  UdsServer& operator=(const UdsServer&) = delete;

  /// Bind + listen on the socket path (unlinking any stale socket
  /// first) and launch the accept loop. Returns false with `error` set
  /// on any socket-layer failure.
  bool start(std::string& error);

  /// Stop accepting, cut open connections, join all threads, unlink
  /// the socket. Idempotent.
  void stop();

  const std::string& socket_path() const noexcept { return socket_path_; }
  bool running() const noexcept { return listen_fd_ >= 0; }

  /// Connection entries currently tracked (live + finished-but-not-yet-
  /// reaped). Drops back toward zero as the accept loop reaps; the
  /// churn tests assert it does not grow monotonically.
  std::size_t tracked_connections() const;

 private:
  /// One accepted connection: its fd (reset to -1 when the serving
  /// thread deregisters it, after which stop() must not touch it) and
  /// the serving thread, reaped once `finished` is set. std::list keeps
  /// entry addresses stable for the serving thread's back-pointer.
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void accept_loop();
  void serve_connection(Connection& connection);
  /// Join and erase every finished entry.
  void reap_finished();

  MatchServer& server_;
  const std::string socket_path_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  mutable std::mutex connections_mutex_;
  std::list<Connection> connections_;
};

/// Blocking client for one connection's worth of request/response
/// exchanges. Not thread-safe; use one client per thread.
class UdsClient {
 public:
  UdsClient() = default;
  ~UdsClient();
  UdsClient(const UdsClient&) = delete;
  UdsClient& operator=(const UdsClient&) = delete;

  bool connect(const std::string& socket_path, std::string& error);
  void close();
  bool connected() const noexcept { return fd_ >= 0; }

  /// One round trip. Returns false (with `error` set) on transport,
  /// encode (control characters in a request field), or decode failure;
  /// a server-side failure is a successful round trip with
  /// response.ok == false.
  bool request(const MatchRequest& request, MatchResponse& response,
               std::string& error);

 private:
  int fd_ = -1;
};

}  // namespace graftmatch::serve
