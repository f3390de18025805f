// perfbench_selftest — tests of the benchmark's own logic: the percentile
// helper, the FIFO request→batch mapping and stage tiling, and seed
// determinism of the generated inputs.  Exits non-zero on any failure.
//
//   perfbench_selftest [scratch-dir]   (the dir receives a round-trip copy
//                                       of one seed's inputs)
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/artifacts/artifacts.hpp"
#include "inputs.hpp"
#include "model/model_io.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

bool throws(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_percentile() {
  const std::vector<double> s = {1, 2, 3, 4, 5};
  check(near(perfbench::percentile_sorted(s, 0.5), 3.0), "p50 of 1..5 is 3");
  check(near(perfbench::percentile_sorted(s, 0.25), 2.0), "p25 of 1..5 is 2");
  check(near(perfbench::percentile_sorted(s, 0.9), 4.6), "p90 of 1..5 interpolates to 4.6");
  check(near(perfbench::percentile_sorted(s, 0.0), 1.0), "p0 is the minimum");
  check(near(perfbench::percentile_sorted(s, 1.0), 5.0), "p100 is the maximum");
  const std::vector<double> one = {7.5};
  check(near(perfbench::percentile_sorted(one, 0.99), 7.5), "one sample is every percentile");
  check(throws([] { (void)perfbench::percentile_sorted({}, 0.5); }), "empty sample throws");
  check(throws([&] { (void)perfbench::percentile_sorted(s, 1.5); }), "q > 1 throws");
  check(near(perfbench::median({4, 1, 3, 2}), 2.5), "median of an even sample averages");
  std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  const auto sum = perfbench::summarize(v);
  check(sum.count == 10 && near(sum.p50, 5.5) && near(sum.max, 10) &&
            near(sum.mean, 5.5) && near(sum.p75, 7.75) && near(sum.p90, 9.1),
        "summarize sorts and reports count, p50, p75, p90, max, mean");
  std::vector<double> none;
  check(perfbench::summarize(none).count == 0, "summarize of nothing is empty");
}

void test_mapping() {
  const std::vector<std::uint32_t> sizes = {1, 2, 3};
  const auto m = perfbench::map_requests_to_batches(sizes, 6);
  check(m.has_value() && *m == std::vector<std::uint32_t>({0, 1, 1, 2, 2, 2}),
        "cumulative batch sizes map requests to batches in FIFO order");
  check(!perfbench::map_requests_to_batches(sizes, 7).has_value(),
        "sizes summing short of the requests invalidate the trace");
  check(!perfbench::map_requests_to_batches(sizes, 5).has_value(),
        "sizes summing past the requests invalidate the trace");
  const std::vector<std::uint32_t> with_zero = {2, 0, 1};
  check(!perfbench::map_requests_to_batches(with_zero, 3).has_value(),
        "an empty batch invalidates the trace");
  check(perfbench::map_requests_to_batches({}, 0).has_value(), "no requests, no batches");
}

void test_stage_tiling() {
  perfbench::RequestTimes t{100, 110, 130, 180, 200, 260};
  auto s = perfbench::split_stages(t);
  check(near(s.late, 10) && near(s.submit, 20) && near(s.wait, 50) &&
            near(s.exec, 20) && near(s.settle, 60),
        "stages follow the timestamps when they are ordered");
  check(near(s.total(), 160), "stages tile due → ready");
  check(perfbench::causally_consistent(t), "ordered timestamps are consistent");

  // The worker ran the batch before submit() returned to the caller.
  t = {100, 110, 170, 150, 190, 200};
  s = perfbench::split_stages(t);
  check(near(s.submit, 60) && near(s.wait, 0) && near(s.exec, 20) && near(s.total(), 100),
        "an overlap with submit() is charged to submit and still tiles");
  check(perfbench::causally_consistent(t), "a batch may start inside submit()");

  t = {100, 110, 130, 105, 200, 260};
  check(!perfbench::causally_consistent(t),
        "a batch starting before its request was submitted is inconsistent");
  t = {100, 110, 130, 150, 300, 260};
  check(!perfbench::causally_consistent(t),
        "a future ready before its batch ended is inconsistent");
}

std::uint64_t content_hash(const flint::model::ForestModel<float>& model) {
  return flint::exec::artifacts::ExecArtifacts<float>(model.forest).content_hash();
}

void test_seed_determinism(const std::string& scratch) {
  using perfbench::ModelKind;
  const auto a = perfbench::generate_inputs(ModelKind::kServe, 7);
  const auto b = perfbench::generate_inputs(ModelKind::kServe, 7);
  const auto c = perfbench::generate_inputs(ModelKind::kServe, 8);
  check(content_hash(a.model) == content_hash(b.model),
        "same seed, same ExecArtifacts::content_hash");
  check(content_hash(a.model) != content_hash(c.model), "another seed, another model");
  check(a.pool.rows == b.pool.rows && a.pool.labels == b.pool.labels,
        "same seed, same row pool and labels");
  check(a.pool.rows != c.pool.rows, "another seed, another row pool");
  check(a.pool.size() == 3500 && a.pool.cols == 10, "serve pool is 3,500 rows x 10 features");
  check(perfbench::request_order(7, 3500, 1000) == perfbench::request_order(7, 3500, 1000),
        "same seed, same request order");
  check(perfbench::request_order(7, 3500, 1000) != perfbench::request_order(8, 3500, 1000),
        "another seed, another request order");

  // What the program under test receives round-trips bit-exactly.
  std::filesystem::create_directories(scratch);
  perfbench::write_inputs(a, scratch);
  const auto pool = perfbench::read_pool(scratch);
  check(pool.rows == a.pool.rows && pool.labels == a.pool.labels,
        "the row pool round-trips through its file");
  const auto loaded = flint::model::load_any_model<float>(perfbench::model_file(scratch));
  check(content_hash(loaded) == content_hash(a.model),
        "the model round-trips through its file");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string scratch =
      argc > 1 ? argv[1] : (std::filesystem::temp_directory_path() / "perfbench_selftest").string();
  test_percentile();
  test_mapping();
  test_stage_tiling();
  test_seed_determinism(scratch);
  std::printf("perfbench_selftest: %s (%d failure%s)\n", g_failures ? "FAILED" : "ok",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures ? 1 : 0;
}
