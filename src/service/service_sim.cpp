#include "service/service_sim.h"

#include "service/queueing.h"

namespace griffin::service {

std::vector<sim::Duration> measure_service_times(
    core::Engine& engine, const std::vector<core::Query>& queries,
    core::RunTotals* totals) {
  std::vector<sim::Duration> times;
  times.reserve(queries.size());
  for (const auto& q : queries) {
    const auto res = engine.execute(q);
    if (totals != nullptr) totals->add(res);
    times.push_back(res.metrics.total);
  }
  return times;
}

ServiceResult run_service(std::span<const sim::Duration> service_times,
                          const ServiceConfig& cfg) {
  ServiceResult res;
  PoissonArrivals arrivals(cfg.arrival_qps, cfg.seed);
  FcfsServer server;
  QueueDepthTracker depth;

  for (const sim::Duration service : service_times) {
    const sim::Duration arrival = arrivals.next();
    const Completion c = server.submit(arrival, service);
    res.service_ms.add(service.ms());
    res.response_ms.add((c.done - arrival).ms());
    depth.observe(arrival, c.done);
  }

  res.utilization = server.utilization(server.free_at());
  res.horizon = server.free_at();
  res.max_queue_depth = depth.max_depth();
  return res;
}

ServiceResult run_service(tenancy::DeviceManager& device,
                          const std::vector<core::Query>& queries,
                          const ServiceConfig& cfg) {
  ServiceResult res;
  PoissonArrivals arrivals(cfg.arrival_qps, cfg.seed);
  std::vector<tenancy::TenantQuery> load;
  load.reserve(queries.size());
  for (const auto& q : queries) {
    load.push_back({q, arrivals.next()});
  }

  QueueDepthTracker depth;
  for (const auto& out : device.run(load)) {
    res.add(out.result);
    res.service_ms.add(out.result.metrics.total.ms());
    res.response_ms.add((out.finish - out.arrival).ms());
    depth.observe(out.arrival, out.finish);
  }
  res.resource_utilization = device.busy_fractions();
  res.horizon = device.timeline().critical_path();
  for (const double f : res.resource_utilization) {
    res.utilization = std::max(res.utilization, f);
  }
  res.max_queue_depth = depth.max_depth();
  return res;
}

}  // namespace griffin::service
