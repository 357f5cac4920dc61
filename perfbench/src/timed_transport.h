// TimedTransport — a Transport decorator that observes the sweep service
// from its public seam only. It forwards every call to the wrapped
// transport and records, per role (coordinator or worker), how many
// send/poll calls ran, the time spent inside them, and how many polls came
// back empty; per message kind, how many messages were sent; and the two
// coordinator milestones the benchmark reports (first lease grant, last
// lease completion polled).
#pragma once

#include <array>
#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "runtime/service/transport.h"

namespace perfbench {

class TimedTransport : public xr::runtime::service::Transport {
 public:
  enum Role { kCoordinator = 0, kWorker = 1 };

  struct RoleStats {
    std::size_t send_n = 0;
    double send_s = 0;
    std::size_t poll_n = 0;
    double poll_s = 0;
    std::size_t poll_empty = 0;
  };

  struct Stats {
    std::array<RoleStats, 2> roles;
    /// Sent messages per MessageKind (index = enum value).
    std::array<std::size_t, 9> sent_by_kind{};
    std::optional<Clock::time_point> first_grant;
    std::optional<Clock::time_point> last_complete_polled;
  };

  explicit TimedTransport(xr::runtime::service::Transport& inner)
      : inner_(inner) {}

  void send(const std::string& to,
            const xr::runtime::service::Message& msg) override;
  std::vector<xr::runtime::service::Message> poll(
      const std::string& inbox) override;
  void publish(const std::string& key, const std::string& content) override;
  std::optional<std::string> fetch(const std::string& key) override;

  [[nodiscard]] Stats stats() const;

 private:
  xr::runtime::service::Transport& inner_;
  mutable std::mutex mu_;
  Stats stats_;  // guarded by mu_
};

}  // namespace perfbench
