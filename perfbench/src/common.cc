#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <sstream>

#include "core/aggregator.h"
#include "nn/transformer.h"
#include "text/vocab.h"
#include "util/rng.h"

namespace perfbench {
namespace {

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Hands freed heap back to the kernel.
void TrimHeap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

/// Restarts VmHWM at the current resident size.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

}  // namespace

dtt::Result<Args> Args::Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return dtt::Status::InvalidArgument("expected --key value, got " + key);
    }
    args.values_[key.substr(2)] = argv[i + 1];
  }
  return args;
}

const std::string& Args::Str(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    std::fprintf(stderr, "perfbench_runner: missing --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

double Args::Num(const std::string& key) const {
  return std::atof(Str(key).c_str());
}

int64_t Args::Int(const std::string& key) const {
  return std::strtoll(Str(key).c_str(), nullptr, 10);
}

std::vector<double> Args::Nums(const std::string& key) const {
  std::vector<double> out;
  std::stringstream in(Str(key));
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(std::atof(item.c_str()));
  }
  return out;
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  fields_.emplace_back(key, Number(value));
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, std::string_view value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Nums(const std::string& key,
                             const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Number(values[i]);
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}

JsonObject& JsonObject::Strs(const std::string& key,
                             const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(values[i]);
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}

JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  fields_.emplace_back(key, value.Render());
  return *this;
}

JsonObject& JsonObject::Objs(const std::string& key,
                             const std::vector<JsonObject>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += values[i].Render();
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(fields_[i].first) + ":" + fields_[i].second;
  }
  return out + "}";
}

void Outcome::Fail(const std::string& message, bool mismatch) {
  ++failed;
  if (mismatch) ++mismatches;
  if (messages.size() < 8) messages.push_back(message);
}

void Outcome::WriteTo(JsonObject* out) const {
  out->Int("attempted", attempted)
      .Int("failed", failed)
      .Int("mismatches", mismatches)
      .Strs("failure_messages", messages);
}

std::string ReadProcStatus() {
  std::ifstream in("/proc/self/status");
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0 || line.rfind("VmRSS:", 0) == 0) {
      out += line + "\n";
    }
  }
  return out;
}

void StartRssSegment() {
  TrimHeap();
  ResetPeakRss();
}

dtt::nn::TransformerConfig NeuralShape() {
  dtt::nn::TransformerConfig cfg;
  cfg.dim = 48;
  cfg.num_heads = 4;
  cfg.ff_hidden = 96;
  cfg.encoder_layers = 3;
  cfg.decoder_layers = 1;
  cfg.max_len = 160;
  return cfg;
}

dtt::Status WriteNeuralArtifact(const std::string& path, uint64_t seed) {
  dtt::Rng init_rng(seed);
  dtt::nn::Transformer transformer(NeuralShape(), &init_rng);
  std::vector<dtt::nn::NamedParam> params = transformer.Params();
  for (auto& p : params) {
    if (p.name == "model.lm_head.bias") {
      p.var.mutable_value().data()[dtt::Vocab::kEos] -= 1e4f;
    }
  }
  return dtt::io::SaveArtifact(path, params);
}

dtt::Result<NeuralBackend> LoadNeural(const std::string& path,
                                      int max_output_tokens) {
  const dtt::nn::TransformerConfig cfg = NeuralShape();
  auto loaded = dtt::io::LoadArtifact(path, cfg);
  if (!loaded.ok()) return loaded.status();
  NeuralBackend backend;
  backend.artifact = std::move(loaded).value();
  dtt::SerializerOptions sopts;
  sopts.max_tokens = cfg.max_len;
  dtt::NeuralModelOptions nopts;
  nopts.max_output_tokens = max_output_tokens;
  backend.model = std::make_shared<dtt::NeuralSeq2SeqModel>(
      backend.artifact.model, dtt::Serializer(sopts), nopts);
  return backend;
}

dtt::RowPrediction OracleRow(
    const std::vector<std::shared_ptr<dtt::TextToTextModel>>& models,
    const dtt::DecomposerOptions& decomposer, uint64_t service_seed,
    uint64_t index, const std::string& source,
    const std::vector<dtt::ExamplePair>& examples, int budget,
    std::vector<std::vector<std::string>>* trials) {
  const dtt::Decomposer decompose(decomposer);
  const dtt::Rng row_rng = dtt::Rng(service_seed).Fork(index);
  std::vector<std::vector<std::string>> outputs(models.size());
  for (size_t m = 0; m < models.size(); ++m) {
    dtt::Rng model_rng = row_rng.Fork(static_cast<uint64_t>(m));
    for (dtt::Prompt& prompt :
         decompose.MakePrompts(source, examples, &model_rng)) {
      prompt.max_output_tokens = budget;
      outputs[m].push_back(dtt::OutputOrAbstain(models[m]->Transform(prompt)));
    }
  }
  const dtt::AggregateResult agg = dtt::Aggregator().AggregateMulti(outputs);
  if (trials != nullptr) *trials = outputs;
  dtt::RowPrediction row;
  row.source = source;
  row.prediction = agg.prediction;
  row.confidence = agg.confidence;
  row.support = agg.support;
  return row;
}

void InputProfile::AddPrompt(const dtt::Prompt& prompt, int serialized_bytes) {
  std::string context;
  for (const dtt::ExamplePair& ex : prompt.examples) {
    std::string pair = std::to_string(ex.source.size()) + ":" + ex.source +
                       "|" + ex.target;
    ++pair_uses_;
    if (!pairs_seen_.insert(pair).second) ++pair_repeats_;
    context += std::to_string(pair.size()) + ":" + pair;
  }
  ++context_uses_;
  if (!contexts_seen_.insert(context).second) ++context_repeats_;
  const std::string key = context + "#" + prompt.source + "#" +
                          std::to_string(prompt.max_output_tokens);
  ++prompt_uses_;
  if (!prompts_seen_.insert(key).second) ++prompt_repeats_;
  prompt_bytes_.push_back(serialized_bytes);
}

void InputProfile::WriteTo(JsonObject* out) const {
  auto share = [](int64_t part, int64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  out->Int("prompts", prompt_uses_)
      .Num("pair_reuse_share", share(pair_repeats_, pair_uses_))
      .Int("distinct_pairs", static_cast<int64_t>(pairs_seen_.size()))
      .Num("context_reuse_share", share(context_repeats_, context_uses_))
      .Int("distinct_contexts", static_cast<int64_t>(contexts_seen_.size()))
      .Num("prompt_repeat_share", share(prompt_repeats_, prompt_uses_))
      .Nums("prompt_bytes", prompt_bytes_)
      .Int("short_budget_rows", short_)
      .Int("long_budget_rows", long_);
}

std::vector<std::string> TransformInBatches(
    dtt::TextToTextModel* model, const std::vector<dtt::Prompt>& prompts,
    size_t batch, double* seconds) {
  std::vector<std::string> outputs;
  outputs.reserve(prompts.size());
  for (size_t begin = 0; begin < prompts.size(); begin += batch) {
    const size_t end = std::min(prompts.size(), begin + batch);
    const std::vector<dtt::Prompt> chunk(prompts.begin() + begin,
                                         prompts.begin() + end);
    const auto start = Clock::now();
    std::vector<dtt::Result<std::string>> results =
        model->TransformBatch(chunk);
    *seconds += SecondsSince(start);
    for (const auto& r : results) outputs.push_back(dtt::OutputOrAbstain(r));
  }
  return outputs;
}

namespace {

/// Computed (not measured) floating-point work of one GenerateBatch call on
/// a padded batch: encoder over every padded position, the per-sequence
/// cross-attention K/V projection, and `steps` decoder steps per row.
double GenerateFlops(const dtt::nn::TransformerConfig& cfg, int batch,
                     int padded_len, int steps) {
  const double d = cfg.dim, f = cfg.ff_hidden, v = cfg.vocab_size;
  const double t = padded_len;
  const double rows = batch;
  double flops = 0.0;
  // Encoder: Q/K/V/O projections, attention scores and mixing, feed-forward.
  flops += cfg.encoder_layers * rows * t * (8 * d * d + 4 * t * d + 4 * d * f);
  // Cross-attention K/V of the memory, once per decode.
  flops += cfg.decoder_layers * rows * t * (4 * d * d);
  for (int s = 0; s < steps; ++s) {
    const double prefix = s + 1;
    flops += cfg.decoder_layers * rows *
             (8 * d * d + 4 * prefix * d +  // self-attention
              4 * d * d + 4 * t * d +       // cross-attention Q/O + mixing
              4 * d * f);                   // feed-forward
    flops += rows * 2 * d * v;              // lm head
  }
  return flops;
}

}  // namespace

void ProbeNeural(dtt::NeuralSeq2SeqModel* model,
                 const std::vector<dtt::Prompt>& prompts, JsonObject* out) {
  dtt::nn::Transformer* transformer = model->model();
  const dtt::nn::TransformerConfig& cfg = transformer->config();
  dtt::StreamDecoderOptions stream_options;
  stream_options.max_slots = 8;
  std::unique_ptr<dtt::TokenStreamDecoder> decoder =
      model->NewStreamDecoder(stream_options);
  // Serialize once through the decoder's own validation; the same ids feed
  // every probe below.
  std::vector<dtt::PreparedPrompt> prepared;
  for (const dtt::Prompt& prompt : prompts) {
    auto p = decoder->Prepare(prompt);
    if (p.ok()) prepared.push_back(std::move(p).value());
  }
  std::vector<std::vector<int>> inputs;
  std::vector<int> budgets;
  for (const dtt::PreparedPrompt& p : prepared) {
    inputs.push_back(p.input_ids);
    budgets.push_back(p.max_steps);
  }
  if (inputs.empty()) return;
  constexpr size_t kBatch = 8;
  double encode_s = 0.0, generate_s = 0.0, flops = 0.0;
  int64_t valid_tokens = 0, padded_tokens = 0, rows_b8 = 0;
  for (size_t begin = 0; begin < inputs.size(); begin += kBatch) {
    const size_t end = std::min(inputs.size(), begin + kBatch);
    const std::vector<std::vector<int>> batch(inputs.begin() + begin,
                                              inputs.begin() + end);
    const int steps =
        *std::max_element(budgets.begin() + begin, budgets.begin() + end);
    const dtt::nn::PaddedBatch packed = dtt::nn::PaddedBatch::Pack(batch);
    auto start = Clock::now();
    dtt::nn::Var memory = transformer->EncodeBatch(packed);
    encode_s += SecondsSince(start);
    start = Clock::now();
    transformer->GenerateBatch(batch, steps);
    generate_s += SecondsSince(start);
    rows_b8 += static_cast<int64_t>(batch.size());
    for (int len : packed.lengths) valid_tokens += len;
    padded_tokens += static_cast<int64_t>(packed.batch()) * packed.padded_len;
    flops += GenerateFlops(cfg, packed.batch(), packed.padded_len, steps);
  }
  // Batch 1 on the first rows of the same stream.
  const size_t b1_rows = std::min<size_t>(inputs.size(), 48);
  double b1_s = 0.0;
  for (size_t i = 0; i < b1_rows; ++i) {
    const auto start = Clock::now();
    transformer->GenerateBatch({inputs[i]}, budgets[i]);
    b1_s += SecondsSince(start);
  }
  // The stream decoder's Admit and Step, driven directly: FIFO admission
  // into free slots, one step between admissions.
  size_t next = 0, finished = 0;
  double admit_s = 0.0, step_s = 0.0;
  int64_t admit_calls = 0, step_calls = 0;
  while (finished < prepared.size()) {
    std::vector<dtt::PreparedPrompt> group;
    while (next < prepared.size() &&
           static_cast<int>(group.size()) < decoder->free_slots()) {
      group.push_back(prepared[next++]);
    }
    if (!group.empty()) {
      const auto start = Clock::now();
      decoder->Admit(group);
      admit_s += SecondsSince(start);
      ++admit_calls;
    }
    const auto start = Clock::now();
    finished += decoder->Step().size();
    step_s += SecondsSince(start);
    ++step_calls;
  }
  out->Num("nn.encode_s", encode_s)
      .Num("nn.generate_s", generate_s)
      .Num("nn.generate_rows_b8", static_cast<double>(rows_b8))
      .Num("nn.generate_rows_b1", static_cast<double>(b1_rows))
      .Num("nn.generate_b1_s", b1_s)
      .Num("nn.admit_s", admit_s)
      .Int("nn.admit_calls", admit_calls)
      .Num("nn.step_s", step_s)
      .Int("nn.step_calls", step_calls)
      .Int("nn.valid_tokens", valid_tokens)
      .Int("nn.padded_tokens", padded_tokens)
      .Num("nn.flops_computed", flops);
}

}  // namespace perfbench
