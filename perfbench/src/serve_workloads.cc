// The two serving workloads.
//
// serve_longtail: open loop. One TransformService over one NeuralSeq2Seq
// backend with continuous batching; unique rows, k=2 n=5, 95% short and 5%
// ten-times-long decode budgets. A burst measures the drain rate, then a
// ladder of fixed offered rates measures latency from each request's
// scheduled send time, generator lateness and backlog growth.
//
// serve_repeat: closed loop. One generator thread keeps a fixed number of
// requests outstanding against a two-backend service (simulated dtt plus the
// neural shape on the micro-batch path); rows are drawn with Zipf skew from
// WT and SS source columns, three examples per table, so repeated rows
// reproduce their exact prompts.
//
// Both check a seeded sample of completed rows, outside the timed region,
// against the serial per-prompt oracle on the same per-request RNG stream.
#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>

#include "core/joiner.h"
#include "eval/experiment.h"
#include "eval/runner.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "util/rng.h"

namespace perfbench {

JsonObject SnapshotServeMetrics(const dtt::obs::MetricsSnapshot& snapshot) {
  JsonObject out;
  for (const char* name :
       {"serve.rows.submitted", "serve.rows.rejected", "serve.rows.completed",
        "serve.prompts.cache_hits", "serve.prompts.dedup_joins",
        "serve.prompts.decoded", "serve.batches", "serve.cb.admitted",
        "serve.cb.admit_groups", "serve.cb.steps"}) {
    auto it = snapshot.counters.find(name);
    out.Int(name, it == snapshot.counters.end()
                      ? 0
                      : static_cast<int64_t>(it->second));
  }
  auto hist = [&](const char* name) {
    auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? dtt::obs::HistogramSnapshot{}
                                           : it->second;
  };
  const dtt::obs::HistogramSnapshot wait = hist("serve.queue_wait_ms");
  const dtt::obs::HistogramSnapshot batch = hist("serve.batch_size");
  const dtt::obs::HistogramSnapshot group = hist("serve.cb.admit_group_size");
  out.Int("serve.queue_wait_ms.count", static_cast<int64_t>(wait.count))
      .Num("serve.queue_wait_ms.p50", wait.Percentile(0.50))
      .Num("serve.queue_wait_ms.p99", wait.Percentile(0.99))
      .Int("serve.batch_size.count", static_cast<int64_t>(batch.count))
      .Num("serve.batch_size.mean", batch.Mean())
      .Num("serve.cb.admit_group_size.mean", group.Mean());
  return out;
}

namespace {

/// Service worker threads of both serve workloads.
constexpr int kServeThreads = 2;

// serve_longtail's stream.
/// Decode budgets: short rows and the ten-times-long ones, one every
/// kLongPeriod rows (5%).
constexpr int kShortBudget = 8;
constexpr int kLongBudget = 80;
constexpr size_t kLongPeriod = 20;
/// Source lengths are drawn from [kMinLen, kMaxLen] over kTables synthetic
/// tables of six examples each. Many tables keep the mean prompt length,
/// and with it the encoder's cost, nearly the same for every seed.
constexpr int kMinLen = 4;
constexpr int kMaxLen = 16;
constexpr int kTables = 256;
/// Drain-rate bursts: kBursts of kBurstRows rows scheduled at once.
constexpr int64_t kBurstRows = 192;
constexpr int kBursts = 5;
/// The nominal rung carries 1000 rows so its p99 has 10 samples beyond it;
/// the other rungs run kRungSeconds each.
constexpr size_t kNominalRows = 1000;
constexpr double kRungSeconds = 1.5;
/// Decode slots of the continuous batcher.
constexpr int kMaxSlots = 8;

// serve_repeat's stream.
/// Zipf exponent of row popularity.
constexpr double kZipf = 1.0;
/// Decode budget of the neural backend.
constexpr int kRepeatBudget = 8;
/// Unmeasured requests that warm the cache before the measured window.
constexpr int64_t kWarmupRequests = 500;
/// Measured requests per second of --seconds: 6000 at the default 20 s,
/// four quarters of 1500, each with its own p99.
constexpr double kRequestsPerSecond = 300;
/// Memory segments of the measured window: each starts with freed heap
/// handed back, and the peak is their median. More segments than quarters,
/// because a segment's peak hinges on whether two heavy synthesis calls
/// happen to overlap on the two worker threads.
constexpr int64_t kRssSegments = 12;
/// Requests of each closed loop of the traced run.
constexpr int64_t kTraceRows = 600;
/// The fixed catalog: WT and SS at full row scale from this seed.
constexpr uint64_t kCatalogSeed = 20247;
/// The eval probe: one ExperimentRunner pass of DTT over this many catalog
/// tables on this many workers.
constexpr size_t kEvalTables = 8;
constexpr int kEvalWorkers = 2;
/// Served rows the traced run pushes through a continuous-batching service.
constexpr size_t kContinuousProbeRows = 64;

/// One served row: what was sent, when, and what came back.
struct Request {
  size_t item = 0;       // index into the workload's row list
  int budget = 0;        // decode budget (0 = backend maximum)
  uint64_t index = 0;    // the service's request index
  int phase = 0;
  Clock::time_point scheduled{};
  Clock::time_point submitted{};
  Clock::time_point completed{};
  std::string prediction;
  bool accepted = false;
};

/// A deque so records keep their addresses while the generator appends.
using Requests = std::deque<Request>;

/// Completion bookkeeping shared with the service's callbacks.
struct Tracker {
  std::mutex mu;
  std::condition_variable cv;
  int64_t accepted = 0;
  int64_t completed = 0;

  int64_t Outstanding() {
    std::lock_guard<std::mutex> lock(mu);
    return accepted - completed;
  }
};

/// Submits `req` and stamps its completion through the callback. The
/// record must stay at a fixed address until the service drains.
bool SubmitRequest(dtt::serve::TransformService* service, Tracker* tracker,
                   uint64_t* next_index, const std::string& source,
                   const std::vector<dtt::ExamplePair>& examples,
                   Request* req, Outcome* outcome) {
  dtt::serve::SubmitOptions options;
  options.max_output_tokens = req->budget;
  {
    std::lock_guard<std::mutex> lock(tracker->mu);
    ++tracker->accepted;
  }
  req->submitted = Clock::now();
  auto admitted = service->Submit(
      source, examples, options, [req, tracker](const dtt::RowPrediction& p) {
        req->completed = Clock::now();
        req->prediction = p.prediction;
        {
          std::lock_guard<std::mutex> lock(tracker->mu);
          ++tracker->completed;
        }
        tracker->cv.notify_all();
      });
  ++outcome->attempted;
  if (!admitted.ok()) {
    {
      std::lock_guard<std::mutex> lock(tracker->mu);
      --tracker->accepted;
    }
    outcome->Fail("request refused: " + admitted.status().message());
    return false;
  }
  req->accepted = true;
  req->index = (*next_index)++;
  return true;
}

/// Latencies (ms) of the accepted requests of one phase, from `scheduled`
/// when open loop or from `submitted` when closed loop; refused requests
/// are absent here and counted as failed by the caller.
std::vector<double> Latencies(const Requests& reqs, int phase,
                              bool from_schedule,
                              std::vector<double>* budgets) {
  std::vector<double> out;
  for (const Request& r : reqs) {
    if (r.phase != phase || !r.accepted) continue;
    const double ms = MillisBetween(from_schedule ? r.scheduled : r.submitted,
                                    r.completed);
    out.push_back(ms);
    if (budgets != nullptr) budgets->push_back(r.budget);
  }
  return out;
}

/// Seeded random lowercase text with a separator in the middle.
std::string RandomText(dtt::Rng* rng, int len) {
  static constexpr char kAlpha[] = "abcdefghijklmnopqrstuvwxyz";
  std::string s;
  for (int i = 0; i < len; ++i) {
    s.push_back(i == len / 2 ? '-' : kAlpha[rng->NextBounded(26)]);
  }
  return s;
}

/// A row of a synthetic table whose target is the text after the
/// separator, upper-cased on odd tables.
dtt::ExamplePair SyntheticRow(dtt::Rng* rng, int table, int len) {
  std::string source = RandomText(rng, len);
  std::string target = source.substr(source.find('-') + 1);
  if (table % 2 == 1) {
    for (char& c : target) c = static_cast<char>(c - 'a' + 'A');
  }
  return {source, target};
}

/// Checks a seeded sample of accepted requests against the serial
/// per-prompt oracle. Returns the oracle's per-row trial outputs.
std::vector<std::vector<std::vector<std::string>>> CheckAgainstOracle(
    const std::vector<std::shared_ptr<dtt::TextToTextModel>>& models,
    uint64_t service_seed, const Requests& reqs,
    const std::vector<std::string>& sources,
    const std::vector<const std::vector<dtt::ExamplePair>*>& examples,
    size_t sample, uint64_t pick_seed, Outcome* outcome) {
  std::vector<size_t> ids;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (reqs[i].accepted) ids.push_back(i);
  }
  dtt::Rng pick(pick_seed);
  pick.Shuffle(&ids);
  ids.resize(std::min(ids.size(), sample));
  std::vector<std::vector<std::vector<std::string>>> trials;
  for (size_t i : ids) {
    const Request& r = reqs[i];
    trials.emplace_back();
    const dtt::RowPrediction want =
        OracleRow(models, dtt::DecomposerOptions{}, service_seed, r.index,
                  sources[r.item], *examples[r.item], r.budget,
                  &trials.back());
    ++outcome->attempted;
    if (want.prediction != r.prediction) {
      outcome->Fail("request " + std::to_string(r.index) +
                        " differs from the serial oracle",
                    true);
    }
  }
  return trials;
}

/// Re-derives every accepted request's prompts from its service stream
/// (untimed input profile and the timed text.decompose replay).
/// The eval layer is not on serve_repeat's path; probe it on the same
/// inputs: one ExperimentRunner pass of DTT over `tables` seeded tables of
/// the catalog, reported like one grid pass.
JsonObject ProbeEval(const std::vector<dtt::Dataset>& catalog, uint64_t seed,
                     size_t tables, int workers) {
  std::vector<const dtt::TablePair*> all;
  for (const dtt::Dataset& ds : catalog) {
    for (const dtt::TablePair& table : ds.tables) all.push_back(&table);
  }
  dtt::Rng pick(seed ^ 0xE7A1ULL);
  pick.Shuffle(&all);
  dtt::Dataset sample{"catalog", {}};
  for (size_t i = 0; i < std::min(tables, all.size()); ++i) {
    sample.tables.push_back(*all[i]);
  }
  dtt::ExperimentSpec spec;
  spec.name = "serve_repeat_eval";
  spec.seed = seed;
  spec.AddDataset(sample);
  spec.AddMethod(dtt::MakeDttMethod());
  const auto start = Clock::now();
  const dtt::GridResult result =
      dtt::ExperimentRunner(dtt::RunnerOptions{workers, false}).Run(spec);
  const double wall = SecondsSince(start);
  std::vector<double> cell_ms;
  double rows = 0.0;
  for (const dtt::TableEval& te : result.evals[0][0].per_table) {
    cell_ms.push_back(te.seconds * 1000.0);
    rows += static_cast<double>(te.pred.count);
  }
  return JsonObject()
      .Num("rows", rows)
      .Num("wall_s", wall)
      .Num("parallel_efficiency",
           result.cell_seconds / (result.wall_seconds * result.num_workers))
      .Nums("cell_ms", cell_ms);
}

double ReplayDecompose(size_t num_models, uint64_t service_seed,
                       const Requests& reqs,
                       const std::vector<std::string>& sources,
                       const std::vector<const std::vector<dtt::ExamplePair>*>&
                           examples,
                       InputProfile* profile,
                       std::vector<dtt::Prompt>* prompts) {
  const dtt::Decomposer decomposer{dtt::DecomposerOptions{}};
  const dtt::Serializer serializer(dtt::SerializerOptions{160, true});
  double seconds = 0.0;
  for (const Request& r : reqs) {
    if (!r.accepted) continue;
    const dtt::Rng row_rng = dtt::Rng(service_seed).Fork(r.index);
    for (size_t m = 0; m < num_models; ++m) {
      dtt::Rng model_rng = row_rng.Fork(m);
      const auto start = Clock::now();
      std::vector<dtt::Prompt> made =
          decomposer.MakePrompts(sources[r.item], *examples[r.item],
                                 &model_rng);
      seconds += SecondsSince(start);
      for (dtt::Prompt& p : made) {
        p.max_output_tokens = r.budget;
        profile->AddPrompt(p, static_cast<int>(serializer.EncodePrompt(p).size()));
        if (m == 0) prompts->push_back(std::move(p));
      }
    }
  }
  return seconds;
}

/// Times one call per layer the serving paths share: TransformBatch of
/// both simulated backends and the neural probe on a sample of the
/// workload's prompts, AggregateMulti on oracle trials, the edit-distance
/// join of predictions against their tables' targets.
void ProbeSharedLayers(dtt::NeuralSeq2SeqModel* neural,
                       std::vector<dtt::Prompt> prompts, uint64_t seed,
                       const std::vector<std::vector<std::vector<std::string>>>&
                           trials,
                       JsonObject* layers) {
  dtt::Rng pick(seed ^ 0xA11CEULL);
  pick.Shuffle(&prompts);
  prompts.resize(std::min<size_t>(prompts.size(), 160));
  std::vector<dtt::Prompt> unbudgeted = prompts;
  for (dtt::Prompt& p : unbudgeted) p.max_output_tokens = 0;
  int64_t attempts = 0, abstained = 0;
  for (const auto& model : {dtt::MakeDttModel(), dtt::MakeGpt3Model()}) {
    double seconds = 0.0;
    for (const std::string& output :
         TransformInBatches(model.get(), unbudgeted, 16, &seconds)) {
      ++attempts;
      if (output.empty()) ++abstained;
    }
    layers->Num("models." + model->name() + ".transform_s", seconds);
  }
  layers->Int("models.attempts", attempts).Int("models.abstained", abstained);
  ProbeNeural(neural, prompts, layers);
  const dtt::Aggregator aggregator;
  const auto start = Clock::now();
  for (const auto& per_model : trials) aggregator.AggregateMulti(per_model);
  layers->Num("core.aggregate_s", SecondsSince(start));
}

/// serve_repeat's backends never run continuous batching; push a sample of
/// its served rows through a one-backend continuous-batching service over
/// the same neural model, all at once so admission groups form, and check
/// each against the serial oracle. Writes the batcher's serve.cb.* counters.
JsonObject ProbeContinuous(
    const std::shared_ptr<dtt::NeuralSeq2SeqModel>& neural,
    uint64_t service_seed, const Requests& reqs,
    const std::vector<std::string>& sources,
    const std::vector<const std::vector<dtt::ExamplePair>*>& examples,
    Outcome* outcome) {
  dtt::serve::ServeOptions sopts;
  sopts.seed = service_seed;
  sopts.num_threads = kServeThreads;
  sopts.max_pending_rows = 1 << 20;
  dtt::serve::BackendQueueOptions queue;
  queue.continuous.enabled = true;
  queue.continuous.max_slots = kMaxSlots;
  sopts.backends = {queue};
  const std::vector<std::shared_ptr<dtt::TextToTextModel>> models = {neural};
  dtt::serve::TransformService service(models, sopts);
  std::vector<size_t> items;
  std::vector<std::future<dtt::RowPrediction>> futures;
  for (const Request& r : reqs) {
    if (items.size() == kContinuousProbeRows) break;
    if (!r.accepted) continue;
    auto admitted = service.Submit(sources[r.item], *examples[r.item]);
    ++outcome->attempted;
    if (!admitted.ok()) {
      outcome->Fail("continuous probe refused: " + admitted.status().message());
      continue;
    }
    items.push_back(r.item);
    futures.push_back(std::move(admitted).value());
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const dtt::RowPrediction got = futures[i].get();
    const dtt::RowPrediction want =
        OracleRow(models, dtt::DecomposerOptions{}, service_seed, i,
                  sources[items[i]], *examples[items[i]], 0);
    if (want.prediction != got.prediction) {
      outcome->Fail("continuous probe row " + std::to_string(i) +
                        " differs from the serial oracle",
                    true);
    }
  }
  const dtt::serve::BackendStats stats = service.stats().backends[0];
  return JsonObject()
      .Int("serve.cb.admitted", static_cast<int64_t>(stats.cb_admitted))
      .Int("serve.cb.admit_groups", static_cast<int64_t>(stats.cb_admit_groups))
      .Int("serve.cb.steps", static_cast<int64_t>(stats.cb_steps));
}

}  // namespace

int RunServeLongtail(const Args& args, JsonObject* out) {
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  const bool trace = args.Int("trace") != 0;
  const std::vector<double> rates = args.Nums("rates");
  const double nominal = args.Num("nominal-rate");
  const uint64_t service_seed = seed * 0x9E3779B97F4A7C15ULL + 11;
  Outcome outcome;

  // Inputs: unique rows over kTables synthetic tables.
  dtt::Rng data_rng(seed ^ 0x10C6A11ULL);
  std::vector<std::vector<dtt::ExamplePair>> tables(kTables);
  for (int t = 0; t < kTables; ++t) {
    for (int e = 0; e < 6; ++e) {
      tables[t].push_back(SyntheticRow(
          &data_rng, t, static_cast<int>(data_rng.NextInt(kMinLen, kMaxLen))));
    }
  }
  auto rung_rows = [&](double rate) {
    return rate == nominal && !trace
               ? kNominalRows
               : static_cast<size_t>(rate * kRungSeconds) + 1;
  };
  size_t total_rows = static_cast<size_t>(kBurstRows) *
                      static_cast<size_t>(trace ? 3 : kBursts);
  for (double rate : rates) total_rows += rung_rows(rate);
  std::vector<std::string> sources;
  std::vector<std::string> targets;
  std::vector<const std::vector<dtt::ExamplePair>*> row_examples;
  std::vector<int> row_table, budgets;
  {
    std::unordered_set<std::string> seen;
    while (sources.size() < total_rows) {
      const int t = static_cast<int>(data_rng.NextBounded(kTables));
      dtt::ExamplePair row = SyntheticRow(
          &data_rng, t, static_cast<int>(data_rng.NextInt(kMinLen, kMaxLen)));
      if (!seen.insert(row.source).second) continue;
      sources.push_back(row.source);
      targets.push_back(row.target);
      row_examples.push_back(&tables[t]);
      row_table.push_back(t);
    }
  }
  // Every kLongPeriod-th row is long: each phase carries the same mix,
  // and long rows never arrive back to back, where two of them would queue
  // for the same decode slots and the latency tail would hinge on how often
  // a seed happened to place them together.
  budgets.assign(total_rows, kShortBudget);
  for (size_t i = kLongPeriod - 1; i < total_rows; i += kLongPeriod) {
    budgets[i] = kLongBudget;
  }

  const std::string artifact = args.Str("artifact-dir") + "/longtail-" +
                               std::to_string(seed) + ".dttart";
  dtt::Status st = WriteNeuralArtifact(artifact, seed);
  if (!st.ok()) {
    std::fprintf(stderr, "WriteNeuralArtifact: %s\n", st.message().c_str());
    return 1;
  }
  dtt::serve::ServeOptions sopts;
  sopts.seed = service_seed;
  sopts.num_threads = kServeThreads;
  sopts.max_pending_rows = 1 << 20;
  dtt::serve::BackendQueueOptions queue;
  queue.max_batch = 8;
  queue.continuous.enabled = true;
  queue.continuous.max_slots = kMaxSlots;
  sopts.backends = {queue};

  // Set-up: LoadArtifact plus service start, repeated; the last one serves.
  std::vector<double> setup_s, load_s;
  NeuralBackend neural;
  std::unique_ptr<dtt::serve::TransformService> service;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    neural = NeuralBackend{};
    const auto start = Clock::now();
    auto loaded = LoadNeural(artifact, kLongBudget);
    load_s.push_back(SecondsSince(start));
    if (!loaded.ok()) {
      std::fprintf(stderr, "LoadNeural: %s\n",
                   loaded.status().message().c_str());
      return 1;
    }
    neural = std::move(loaded).value();
    service = std::make_unique<dtt::serve::TransformService>(
        std::vector<std::shared_ptr<dtt::TextToTextModel>>{neural.model},
        sopts);
    setup_s.push_back(SecondsSince(start));
  }
  out->Nums("setup_s", setup_s);
  const std::string status_after_setup = ReadProcStatus();

  Requests reqs(total_rows);
  Tracker tracker;
  uint64_t next_index = 0;
  size_t next_row = 0;
  int phase = 0;

  // Burst: every row of the phase scheduled at once; the drain rate is the
  // service's capacity on this mix.
  std::vector<JsonObject> bursts;
  auto run_burst = [&]() {
    const int p = phase++;
    const auto start = Clock::now();
    for (int64_t i = 0; i < kBurstRows; ++i) {
      Request& r = reqs[next_row];
      r.item = next_row++;
      r.budget = budgets[r.item];
      r.phase = p;
      r.scheduled = start;
      SubmitRequest(service.get(), &tracker, &next_index, sources[r.item],
                    *row_examples[r.item], &r, &outcome);
    }
    service->Drain();
    const double wall = SecondsSince(start);
    std::vector<double> completion_ms;
    for (const Request& r : reqs) {
      if (r.phase == p && r.accepted) {
        completion_ms.push_back(MillisBetween(start, r.completed));
      }
    }
    bursts.push_back(JsonObject().Nums("completion_ms", completion_ms));
    return wall;
  };

  // One open-loop rung: constant gaps at `rate`, latency from the schedule.
  std::vector<JsonObject> rungs;
  int64_t backlog_max = 0;
  auto run_rung = [&](double rate, size_t rows) {
    const int p = phase++;
    std::vector<double> lateness;
    int64_t outstanding_start = 0, outstanding_end = 0;
    const size_t warm = rows / 10;
    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    for (size_t i = 0; i < rows; ++i) {
      Request& r = reqs[next_row];
      r.item = next_row++;
      r.budget = budgets[r.item];
      r.phase = p;
      r.scheduled = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(i / rate));
      std::this_thread::sleep_until(r.scheduled);
      lateness.push_back(MillisBetween(r.scheduled, Clock::now()));
      if (i == warm) outstanding_start = tracker.Outstanding();
      SubmitRequest(service.get(), &tracker, &next_index, sources[r.item],
                    *row_examples[r.item], &r, &outcome);
      const int64_t outstanding = tracker.Outstanding();
      backlog_max = std::max(backlog_max, outstanding);
      if (i + 1 == rows) outstanding_end = outstanding;
    }
    service->Drain();
    std::vector<double> rung_budgets;
    JsonObject rung;
    rung.Num("rate", rate)
        .Bool("nominal", rate == nominal)
        .Int("rows", static_cast<int64_t>(rows))
        .Nums("latency_ms", Latencies(reqs, p, true, &rung_budgets))
        .Nums("budget", rung_budgets)
        .Nums("lateness_ms", lateness)
        .Int("outstanding_start", outstanding_start)
        .Int("outstanding_end", outstanding_end);
    rungs.push_back(rung);
  };

  JsonObject layers;
  std::vector<std::string> segment_status;  // peak RSS of each phase
  if (!trace) {
    // Each burst and rung is a memory segment, started between phases while
    // the service is idle.
    for (int i = 0; i < kBursts; ++i) {
      StartRssSegment();
      run_burst();
      segment_status.push_back(ReadProcStatus());
    }
    for (double rate : rates) {
      StartRssSegment();
      run_rung(rate, rung_rows(rate));
      segment_status.push_back(ReadProcStatus());
    }
  } else {
    // Untraced, traced, untraced bursts: the overhead share compares the
    // traced burst with the mean of its neighbours.
    const double untraced_before = run_burst();
    const std::string trace_path = args.Str("trace-path");
    st = dtt::obs::StartTracing(trace_path);
    if (!st.ok()) outcome.Fail("StartTracing: " + st.message());
    const double traced = run_burst();
    st = dtt::obs::StopTracing();
    if (!st.ok()) outcome.Fail("StopTracing: " + st.message());
    const double untraced_after = run_burst();
    for (double rate : rates) run_rung(rate, rung_rows(rate));
    layers.Num("wall_untraced_s", (untraced_before + untraced_after) / 2)
        .Num("wall_traced_s", traced)
        .Str("trace_path", trace_path)
        .Obj("serve_metrics",
             SnapshotServeMetrics(dtt::obs::GlobalMetrics().Snapshot()))
        .Int("serve.backlog_max", backlog_max);
  }
  out->Objs("bursts", bursts)
      .Objs("rungs", rungs)
      .Strs("segment_status", segment_status);
  reqs.resize(next_row);

  // Output check and input profile, untimed.
  const std::vector<std::shared_ptr<dtt::TextToTextModel>> models = {
      neural.model};
  const auto trials = CheckAgainstOracle(
      models, service_seed, reqs, sources, row_examples,
      kCheckRows, seed ^ 0xC4EC4ULL,
      &outcome);
  InputProfile profile;
  for (const Request& r : reqs) profile.AddBudget(r.budget == kLongBudget);
  std::vector<dtt::Prompt> prompts;
  const double decompose_s = ReplayDecompose(1, service_seed, reqs, sources,
                                             row_examples, &profile, &prompts);
  JsonObject inputs;
  profile.WriteTo(&inputs);
  out->Obj("inputs", inputs);

  if (trace) {
    layers.Num("text.decompose_s", decompose_s)
        .Int("text.prompts", static_cast<int64_t>(profile.prompt_bytes().size()))
        .Nums("io.load_artifact_s", load_s)
        .Str("proc_status_after_setup", status_after_setup);
    ProbeSharedLayers(neural.model.get(), prompts, seed, trials, &layers);
    // Join each table's served predictions against that table's targets.
    std::vector<std::vector<std::string>> preds(kTables);
    std::vector<std::vector<std::string>> golds(kTables);
    for (const Request& r : reqs) {
      preds[row_table[r.item]].push_back(r.prediction);
      golds[row_table[r.item]].push_back(targets[r.item]);
    }
    const auto start = Clock::now();
    for (int t = 0; t < kTables; ++t) {
      dtt::EditDistanceJoiner().Join(preds[t], golds[t]);
    }
    layers.Num("core.join_s", SecondsSince(start));
    out->Obj("layers", layers);
  }
  outcome.WriteTo(out);
  service.reset();
  std::filesystem::remove(artifact);
  return 0;
}

int RunServeRepeat(const Args& args, JsonObject* out) {
  const uint64_t seed = static_cast<uint64_t>(args.Int("seed"));
  const double seconds = args.Num("seconds");
  const bool trace = args.Int("trace") != 0;
  const int clients = static_cast<int>(args.Int("clients"));
  const uint64_t service_seed = seed * 0xD1B54A32D192ED03ULL + 7;
  Outcome outcome;

  // Inputs: a fixed catalog of WT and SS source columns with three
  // examples per table and a popularity ranking of the remaining rows, and
  // a request stream drawn from it with Zipf skew by --seed.
  std::vector<dtt::Dataset> datasets;
  datasets.push_back(dtt::MakeDatasetByName("WT", kCatalogSeed, 1.0));
  datasets.push_back(dtt::MakeDatasetByName("SS", kCatalogSeed, 1.0));
  dtt::Rng data_rng(kCatalogSeed ^ 0x2E9EA7ULL);
  std::vector<std::vector<dtt::ExamplePair>> table_examples;
  std::vector<std::string> sources, targets;
  std::vector<const std::vector<dtt::ExamplePair>*> item_examples;
  std::vector<size_t> item_table;
  for (const dtt::Dataset& ds : datasets) {
    for (const dtt::TablePair& table : ds.tables) {
      if (table.num_rows() < 4) continue;
      std::vector<size_t> order =
          data_rng.Sample(table.num_rows(), table.num_rows());
      table_examples.emplace_back();
      for (size_t i = 0; i < 3; ++i) {
        table_examples.back().push_back(
            {table.source[order[i]], table.target[order[i]]});
      }
      for (size_t i = 3; i < order.size(); ++i) {
        sources.push_back(table.source[order[i]]);
        targets.push_back(table.target[order[i]]);
        item_table.push_back(table_examples.size() - 1);
      }
    }
  }
  for (size_t i = 0; i < sources.size(); ++i) {
    item_examples.push_back(&table_examples[item_table[i]]);
  }
  std::vector<size_t> rank(sources.size());
  for (size_t i = 0; i < rank.size(); ++i) rank[i] = i;
  data_rng.Shuffle(&rank);
  std::vector<double> cdf(sources.size());
  double acc = 0.0;
  for (size_t k = 0; k < cdf.size(); ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), kZipf);
    cdf[k] = acc;
  }
  dtt::Rng stream_rng(seed ^ 0x512EA4ULL);
  auto next_item = [&]() {
    const double u = stream_rng.NextDouble() * acc;
    const size_t k = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    return rank[std::min(k, rank.size() - 1)];
  };

  const std::string artifact = args.Str("artifact-dir") + "/repeat-" +
                               std::to_string(seed) + ".dttart";
  dtt::Status st = WriteNeuralArtifact(artifact, seed);
  if (!st.ok()) {
    std::fprintf(stderr, "WriteNeuralArtifact: %s\n", st.message().c_str());
    return 1;
  }
  dtt::serve::ServeOptions sopts;
  sopts.seed = service_seed;
  sopts.num_threads = kServeThreads;
  sopts.max_pending_rows = 1 << 20;
  dtt::serve::BackendQueueOptions fast_q, slow_q;
  fast_q.max_batch = 16;
  slow_q.max_batch = 8;
  sopts.backends = {fast_q, slow_q};

  // Set-up: LoadArtifact, the simulated backend, and service start.
  std::vector<double> setup_s, load_s;
  NeuralBackend neural;
  std::shared_ptr<dtt::TextToTextModel> fast;
  std::unique_ptr<dtt::serve::TransformService> service;
  auto set_up = [&]() {
    service.reset();
    neural = NeuralBackend{};
    const auto start = Clock::now();
    auto loaded = LoadNeural(artifact, kRepeatBudget);
    load_s.push_back(SecondsSince(start));
    if (!loaded.ok()) {
      std::fprintf(stderr, "LoadNeural: %s\n",
                   loaded.status().message().c_str());
      return false;
    }
    neural = std::move(loaded).value();
    fast = dtt::MakeDttModel();
    service = std::make_unique<dtt::serve::TransformService>(
        std::vector<std::shared_ptr<dtt::TextToTextModel>>{fast, neural.model},
        sopts);
    setup_s.push_back(SecondsSince(start));
    return true;
  };
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (!set_up()) return 1;
  }
  out->Nums("setup_s", setup_s);
  const std::string status_after_setup = ReadProcStatus();

  // Closed loop: keep `clients` requests outstanding; each completion lets
  // the generator submit the next. Phase 0 is warm-up; phases 1..4 are the
  // quarters of the measured window, each long enough for its own p99.
  Requests reqs;
  std::vector<std::string> segment_status;  // peak RSS of each segment
  std::vector<JsonObject> quarters;
  int64_t backlog_max = 0;  // most rows outstanding right after a submit
  auto closed_loop = [&](int64_t warm, int64_t measured_rows) {
    reqs.clear();
    quarters.clear();
    backlog_max = 0;
    Tracker tracker;
    uint64_t next_index = 0;
    std::vector<Clock::time_point> quarter_start;
    segment_status.clear();
    const int64_t quarter = std::max<int64_t>(1, measured_rows / 4);
    const int64_t segment = std::max<int64_t>(1, measured_rows / kRssSegments);
    for (int64_t i = 0; i < warm + measured_rows; ++i) {
      // Memory segments restart with freed heap handed back: the pool
      // threads' freed heap stays in idle malloc arenas and would carry
      // into the next segment.
      if (i >= warm && (i - warm) % segment == 0 &&
          static_cast<int64_t>(segment_status.size()) < kRssSegments) {
        if (i > warm) segment_status.push_back(ReadProcStatus());
        StartRssSegment();
      }
      if (i >= warm && (i - warm) % quarter == 0 && quarter_start.size() < 4) {
        quarter_start.push_back(Clock::now());
      }
      {
        std::unique_lock<std::mutex> lock(tracker.mu);
        tracker.cv.wait(lock, [&] {
          return tracker.accepted - tracker.completed < clients;
        });
      }
      reqs.emplace_back();
      Request& r = reqs.back();
      r.item = next_item();
      r.phase = static_cast<int>(quarter_start.size());
      r.scheduled = Clock::now();
      SubmitRequest(service.get(), &tracker, &next_index, sources[r.item],
                    *item_examples[r.item], &r, &outcome);
      backlog_max = std::max(backlog_max, tracker.Outstanding());
    }
    service->Drain();
    segment_status.push_back(ReadProcStatus());
    Clock::time_point last = quarter_start.front();
    for (const Request& r : reqs) {
      if (r.phase > 0 && r.accepted) last = std::max(last, r.completed);
    }
    for (size_t q = 0; q < quarter_start.size(); ++q) {
      const Clock::time_point end =
          q + 1 < quarter_start.size() ? quarter_start[q + 1] : last;
      quarters.push_back(JsonObject()
                             .Nums("latency_ms",
                                   Latencies(reqs, static_cast<int>(q + 1),
                                             false, nullptr))
                             .Num("seconds", std::chrono::duration<double>(
                                                 end - quarter_start[q])
                                                 .count()));
    }
    return std::chrono::duration<double>(last - quarter_start.front())
        .count();
  };

  JsonObject layers;
  if (!trace) {
    // The request count is a function of --seconds alone, so the stream
    // (and the cache's hit pattern) is the same on any machine.
    closed_loop(kWarmupRequests,
                static_cast<int64_t>(seconds * kRequestsPerSecond));
    out->Objs("quarters", quarters)
        .Strs("segment_status", segment_status);
  } else {
    // The same fixed request stream on a fresh service each time: untraced,
    // traced, untraced; the overhead share compares the traced loop with
    // the mean of its neighbours. Checks and probes use the last loop.
    auto fixed_loop = [&]() {
      stream_rng = dtt::Rng(seed ^ 0x512EA4ULL);
      return closed_loop(0, kTraceRows);
    };
    const double untraced_before = fixed_loop();
    layers.Obj("serve_metrics",
               SnapshotServeMetrics(dtt::obs::GlobalMetrics().Snapshot()));
    if (!set_up()) return 1;
    const std::string trace_path = args.Str("trace-path");
    st = dtt::obs::StartTracing(trace_path);
    if (!st.ok()) outcome.Fail("StartTracing: " + st.message());
    const double traced = fixed_loop();
    st = dtt::obs::StopTracing();
    if (!st.ok()) outcome.Fail("StopTracing: " + st.message());
    if (!set_up()) return 1;
    const double untraced_after = fixed_loop();
    layers.Num("wall_untraced_s", (untraced_before + untraced_after) / 2)
        .Num("wall_traced_s", traced)
        .Str("trace_path", trace_path)
        .Int("serve.backlog_max", backlog_max);
  }

  const std::vector<std::shared_ptr<dtt::TextToTextModel>> models = {
      fast, neural.model};
  const auto trials = CheckAgainstOracle(
      models, service_seed, reqs, sources, item_examples,
      kCheckRows, seed ^ 0xC4EC4ULL,
      &outcome);
  InputProfile profile;
  for (const Request& r : reqs) {
    if (r.accepted) profile.AddBudget(false);
  }
  std::vector<dtt::Prompt> prompts;
  const double decompose_s = ReplayDecompose(2, service_seed, reqs, sources,
                                             item_examples, &profile, &prompts);
  JsonObject inputs;
  profile.WriteTo(&inputs);
  out->Obj("inputs", inputs);

  if (trace) {
    layers.Num("text.decompose_s", decompose_s)
        .Int("text.prompts", static_cast<int64_t>(profile.prompt_bytes().size()))
        .Nums("io.load_artifact_s", load_s)
        .Str("proc_status_after_setup", status_after_setup);
    ProbeSharedLayers(neural.model.get(), prompts, seed, trials, &layers);
    // Join each table's served predictions against the gold targets of
    // the rows requested from it.
    std::vector<std::vector<std::string>> preds(table_examples.size());
    std::vector<std::vector<std::string>> golds(table_examples.size());
    for (const Request& r : reqs) {
      preds[item_table[r.item]].push_back(r.prediction);
      golds[item_table[r.item]].push_back(targets[r.item]);
    }
    const auto start = Clock::now();
    for (size_t t = 0; t < preds.size(); ++t) {
      dtt::EditDistanceJoiner().Join(preds[t], golds[t]);
    }
    layers.Num("core.join_s", SecondsSince(start))
        .Obj("continuous_probe",
             ProbeContinuous(neural.model, service_seed, reqs, sources,
                             item_examples, &outcome));
    out->Obj("layers", layers)
        .Objs("passes",
              {ProbeEval(datasets, seed, kEvalTables, kEvalWorkers)});
  }
  outcome.WriteTo(out);
  service.reset();
  std::filesystem::remove(artifact);
  return 0;
}

}  // namespace perfbench
