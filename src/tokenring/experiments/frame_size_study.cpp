#include "tokenring/experiments/frame_size_study.hpp"

#include "tokenring/obs/span.hpp"

#include "tokenring/common/checks.hpp"

namespace tokenring::experiments {

std::vector<FrameSizeStudyRow> run_frame_size_study(
    const FrameSizeStudyConfig& config) {
  const obs::Span span("experiments/frame_size_study");
  TR_EXPECTS(!config.payload_bytes.empty());
  TR_EXPECTS(!config.bandwidths_mbps.empty());

  std::vector<breakdown::SweepPoint> points;
  std::vector<FrameSizeStudyRow> rows;
  for (double bw_mbps : config.bandwidths_mbps) {
    const BitsPerSecond bw = mbps(bw_mbps);
    for (double payload : config.payload_bytes) {
      PaperSetup setup = config.setup;
      setup.frame_payload_bytes = payload;
      for (auto variant : {analysis::PdpVariant::kStandard8025,
                           analysis::PdpVariant::kModified8025}) {
        points.push_back(
            sweep_point(setup, setup.pdp_batch_kernel_factory(variant, bw), bw,
                        config.sets_per_point, config.seed));
      }
      FrameSizeStudyRow row;
      row.payload_bytes = payload;
      row.bandwidth_mbps = bw_mbps;
      rows.push_back(row);
    }
  }
  const auto est =
      estimate_points(points, exec::Executor(config.jobs), config.batch);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].ieee8025 = est[2 * i].mean();
    rows[i].modified8025 = est[2 * i + 1].mean();
  }
  return rows;
}

double best_payload_bytes(const std::vector<FrameSizeStudyRow>& rows,
                          double bandwidth_mbps) {
  double best_payload = 0.0;
  double best_value = -1.0;
  for (const auto& r : rows) {
    if (r.bandwidth_mbps == bandwidth_mbps && r.modified8025 > best_value) {
      best_value = r.modified8025;
      best_payload = r.payload_bytes;
    }
  }
  TR_EXPECTS_MSG(best_value >= 0.0, "no rows for the requested bandwidth");
  return best_payload;
}

}  // namespace tokenring::experiments
