#include "timed_transport.h"

#include "runtime/service/message.h"

namespace perfbench {

namespace svc = xr::runtime::service;

void TimedTransport::send(const std::string& to, const svc::Message& msg) {
  const Role role =
      msg.from == svc::kCoordinatorEndpoint ? kCoordinator : kWorker;
  const Clock::time_point t0 = Clock::now();
  inner_.send(to, msg);
  const double dt = seconds_since(t0);
  const std::lock_guard<std::mutex> lock(mu_);
  RoleStats& r = stats_.roles[role];
  ++r.send_n;
  r.send_s += dt;
  ++stats_.sent_by_kind.at(std::size_t(msg.kind));
  if (msg.kind == svc::MessageKind::kLeaseGrant && !stats_.first_grant)
    stats_.first_grant = t0;
}

std::vector<svc::Message> TimedTransport::poll(const std::string& inbox) {
  const Role role = inbox == svc::kCoordinatorEndpoint ? kCoordinator : kWorker;
  const Clock::time_point t0 = Clock::now();
  std::vector<svc::Message> out = inner_.poll(inbox);
  const Clock::time_point t1 = Clock::now();
  bool completion = false;
  for (const svc::Message& m : out)
    completion |= m.kind == svc::MessageKind::kLeaseComplete;
  const std::lock_guard<std::mutex> lock(mu_);
  RoleStats& r = stats_.roles[role];
  ++r.poll_n;
  r.poll_s += std::chrono::duration<double>(t1 - t0).count();
  if (out.empty()) ++r.poll_empty;
  if (completion && role == kCoordinator) stats_.last_complete_polled = t1;
  return out;
}

void TimedTransport::publish(const std::string& key,
                             const std::string& content) {
  inner_.publish(key, content);
}

std::optional<std::string> TimedTransport::fetch(const std::string& key) {
  return inner_.fetch(key);
}

TimedTransport::Stats TimedTransport::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace perfbench
