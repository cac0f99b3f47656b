"""Harness math of the perfbench front end: percentiles, open-loop
accounting, memory readings, the trace fold, and the per-workload metric
definitions. Pure functions over the runner's raw result document; the
self-tests in perfbench/tests/ cover each of them.
"""

import math
import statistics

# Percentiles tried from the top when choosing the tail to report.
PERCENTILE_LADDER = (99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
# Share of the traced grid pass's wall time its folded root span must cover.
FOLD_MIN_COVERAGE = 0.95


def percentile(samples, p):
    """Exact-rank percentile: the value at rank ceil(p/100 * n) of the sorted
    samples (the convention of src/obs HistogramSnapshot::Percentile)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(p / 100.0 * len(ordered))))
    return ordered[rank - 1]


def tail_percentile(samples, min_beyond=MIN_BEYOND, ceiling=100.0):
    """The highest ladder percentile (at most `ceiling`) with at least
    `min_beyond` samples ranked beyond it. Returns (p, value, count); p is
    None when even the median lacks the samples."""
    n = len(samples)
    for p in PERCENTILE_LADDER:
        if p > ceiling:
            continue
        rank = min(n, max(1, math.ceil(p / 100.0 * n)))
        if n - rank >= min_beyond:
            return p, percentile(samples, p), n
    return None, (max(samples) if samples else 0.0), n


def with_misses(latencies, failed):
    """Latency samples with every failed or refused request counted as
    missing any limit (an infinite latency)."""
    return list(latencies) + [math.inf] * failed


def drain_rate(completion_ms, lo=0.1, hi=0.9):
    """Rows per second a burst completed between its lo and hi completion
    quantiles: the service's capacity, free of the ramp-up at the start and
    of the last long decodes trailing at the end."""
    t = sorted(completion_ms)
    n = len(t)
    a = int(lo * n)
    b = max(a + 1, math.ceil(hi * n) - 1)
    if b >= n or t[b] <= t[a]:
        return 0.0
    return (b - a) / ((t[b] - t[a]) / 1000.0)


def lateness_summary(lateness_ms, rate):
    """How late the open-loop generator sent requests against its schedule.
    The generator fell behind when its tail lateness exceeds one
    inter-arrival gap: the offered rate was then not actually offered."""
    p, value, n = tail_percentile(lateness_ms, ceiling=99.0)
    gap_ms = 1000.0 / rate
    return {"p": p, "p_ms": value, "count": n, "gap_ms": gap_ms,
            "behind": value > gap_ms}


def backlog_grew(outstanding_start, outstanding_end, rows, slack_rows=8,
                 share=0.02):
    """True when the rows still outstanding at a rung's end exceed those at
    its start (after warm-up) by more than max(slack_rows, share * rows):
    arrivals outpaced completions for the rung."""
    return outstanding_end - outstanding_start > max(slack_rows, share * rows)


def max_sustained_rate(rungs, limit_ms):
    """The highest rung rate whose tail latency meets `limit_ms` without
    backlog growth; 0.0 when no rung does. `rungs` holds dicts with rate,
    tail_ms and grew."""
    passing = [r["rate"] for r in rungs
               if r["tail_ms"] <= limit_ms and not r["grew"]]
    return max(passing) if passing else 0.0


def parse_status_kb(status_text, field):
    """Value in kB of `field` (VmHWM, VmRSS) from /proc/<pid>/status text."""
    for line in status_text.splitlines():
        if line.startswith(field + ":"):
            parts = line.split()
            if len(parts) >= 2 and parts[1].isdigit():
                return int(parts[1])
    raise ValueError(f"{field} missing from status text")


def fold_trace(events, wait_suffix="queue_wait"):
    """Folds Chrome trace events into per-layer self time.

    Complete ("X") events are nested per thread; a span's self time is its
    duration minus the time its direct children cover. Layers are the span
    name prefix before the first dot. Retroactive wait spans (names ending
    in `wait_suffix`) overlap other work on their thread by construction,
    so they are summed separately and kept out of the nesting.

    Returns {"self_s": {layer: s}, "waits_s": {name: s},
    "roots_s": {name: s}} where roots are spans with no enclosing span;
    self times of one thread sum to its root durations."""
    self_s, waits_s, roots_s = {}, {}, {}
    by_tid = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        if e["name"].endswith(wait_suffix):
            waits_s[e["name"]] = waits_s.get(e["name"], 0.0) + e["dur"] / 1e6
            continue
        by_tid.setdefault(e["tid"], []).append(e)
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end_us, layer, duration_us, child_us]
        def close(entry):
            layer = entry[1]
            self_s[layer] = self_s.get(layer, 0.0) + \
                max(0.0, entry[2] - entry[3]) / 1e6
        for e in spans:
            start, dur = e["ts"], e["dur"]
            while stack and start >= stack[-1][0]:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                parent[3] += min(dur, parent[0] - start)
            else:
                roots_s[e["name"]] = roots_s.get(e["name"], 0.0) + dur / 1e6
            stack.append([start + dur, e["name"].split(".")[0], dur, 0.0])
        while stack:
            close(stack.pop())
    return {"self_s": self_s, "waits_s": waits_s, "roots_s": roots_s}


def fold_coverage(fold, root_name, wall_s):
    """Share of the harness-measured traced wall time that the fold's root
    span accounts for."""
    return fold["roots_s"].get(root_name, 0.0) / wall_s if wall_s > 0 else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def segment_peaks_mb(segment_status):
    """Each measured segment's peak resident set (VmHWM, restarted at the
    segment's start), in MB."""
    return [parse_status_kb(text, "VmHWM") / 1024.0 for text in segment_status]


def peak_rss_mb(segment_status):
    """Median over a run's measured segments (grid passes, bursts and
    rungs, quarters) of each segment's peak resident set, in MB."""
    return median(segment_peaks_mb(segment_status))


def end_to_end(doc, config):
    """End-to-end metrics plus the printed-only extras of one untraced run.
    Returns (metrics, extras, problems): metrics maps name -> value.

    Where a run has several equal segments (grid passes, bursts, the
    quarters of serve_repeat's window) a metric is the median over them,
    which shrugs off a burst of interference in one segment; p99 always
    comes from at least 1000 samples."""
    workload = doc["workload"]
    metrics = {"setup_s": median(doc["setup_s"]),
               "peak_rss_mb": peak_rss_mb(doc["segment_status"])}
    extras = {"peak_rss_mb_samples": segment_peaks_mb(doc["segment_status"])}
    problems = []
    if workload == "grid_join":
        passes = doc["passes"]
        rates = [p["rows"] / p["wall_s"] for p in passes]
        metrics["p50_ms"] = median([percentile(p["cell_ms"], 50)
                                    for p in passes])
        tails = [tail_percentile([ms for p in passes for ms in p["cell_ms"]],
                                 ceiling=99.0)]
        extras.update(f1=doc["f1"], aned=doc["aned"])
    elif workload == "serve_longtail":
        rates = [drain_rate(b["completion_ms"]) for b in doc["bursts"]]
        rungs = [longtail_rung(rung) for rung in doc["rungs"]]
        nominal = next(r for r, raw in zip(rungs, doc["rungs"])
                       if raw["nominal"])
        metrics["p50_ms"] = nominal["p50_ms"]
        tails = [(nominal["tail_p"], nominal["tail_ms"], nominal["count"])]
        problems += [f"generator fell behind at {r['rate']} rows/s"
                     for r in rungs if r["generator_behind"]]
        extras.update(rungs=rungs, short_p99_ms=nominal["short_tail_ms"],
                      max_rps=max_sustained_rate(rungs,
                                                 config["p99_limit_ms"]))
    else:  # serve_repeat
        quarters = doc["quarters"]
        rates = [len(q["latency_ms"]) / q["seconds"] for q in quarters]
        metrics["p50_ms"] = median([percentile(q["latency_ms"], 50)
                                    for q in quarters])
        tails = [tail_percentile(q["latency_ms"], ceiling=99.0)
                 for q in quarters]
    metrics["rows_per_s"] = median(rates)
    metrics["p99_ms"] = median([t[1] for t in tails])
    extras["rows_per_s_samples"] = rates
    extras["tail_percentile"] = min((t[0] or 0.0) for t in tails)
    extras["latency_samples"] = min(t[2] for t in tails)
    if extras["tail_percentile"] != 99.0:
        problems.append("p99 needs 1000 samples; reporting "
                        f"p{extras['tail_percentile']} of "
                        f"{extras['latency_samples']}")
    return metrics, extras, problems


def longtail_rung(rung):
    """One open-loop rung: its latency tail with refusals counted as
    misses, the short-budget tail, generator lateness and backlog growth."""
    refused = rung["rows"] - len(rung["latency_ms"])
    samples = with_misses(rung["latency_ms"], refused)
    p, tail, n = tail_percentile(samples, ceiling=99.0)
    short_budget = min(rung["budget"], default=0)
    shorts = [ms for ms, b in zip(rung["latency_ms"], rung["budget"])
              if b == short_budget]
    sp, short_tail, _ = tail_percentile(with_misses(shorts, refused),
                                        ceiling=99.0)
    late = lateness_summary(rung["lateness_ms"], rung["rate"])
    return {"rate": rung["rate"], "tail_p": p, "tail_ms": tail, "count": n,
            "p50_ms": percentile(samples, 50),
            "short_tail_p": sp, "short_tail_ms": short_tail,
            "lateness_p": late["p"], "lateness_ms": late["p_ms"],
            "generator_behind": late["behind"],
            "grew": backlog_grew(rung["outstanding_start"],
                                 rung["outstanding_end"], rung["rows"]),
            "outstanding": [rung["outstanding_start"],
                            rung["outstanding_end"]]}


def per_layer(doc):
    """Per-layer metrics of one traced run (layers a workload does not
    touch report 0)."""
    layers = doc["layers"]
    inputs = doc["inputs"]
    serve = layers["serve_metrics"]
    m = {}
    passes = doc.get("passes", [])
    cells = passes[0]["cell_ms"] if passes else []
    m["eval.cell_ms.p50"] = percentile(cells, 50) if cells else 0.0
    m["eval.cell_ms.max"] = max(cells, default=0.0)
    m["eval.parallel_efficiency"] = (passes[0]["parallel_efficiency"]
                                     if passes else 0.0)
    m["text.decompose_s"] = layers["text.decompose_s"]
    m["text.prompts"] = layers["text.prompts"]
    m["text.prompt_bytes.p50"] = percentile(inputs["prompt_bytes"], 50)
    m["text.prompt_bytes.max"] = max(inputs["prompt_bytes"], default=0)
    m["models.dtt.transform_s"] = layers["models.dtt.transform_s"]
    m["models.gpt3-sim.transform_s"] = layers["models.gpt3-sim.transform_s"]
    m["models.abstain_share"] = _share(layers["models.abstained"],
                                       layers["models.attempts"])
    m["models.pair_reuse_share"] = inputs["pair_reuse_share"]
    m["models.context_reuse_share"] = inputs["context_reuse_share"]
    m["nn.encode_s"] = layers["nn.encode_s"]
    m["nn.generate_s"] = layers["nn.generate_s"]
    m["nn.encode_share"] = _share(layers["nn.encode_s"], layers["nn.generate_s"])
    m["nn.admit_ms"] = 1000.0 * _share(layers["nn.admit_s"],
                                       layers["nn.admit_calls"])
    m["nn.step_ms"] = 1000.0 * _share(layers["nn.step_s"],
                                      layers["nn.step_calls"])
    m["nn.generate_rows_per_s.b1"] = _share(layers["nn.generate_rows_b1"],
                                            layers["nn.generate_b1_s"])
    m["nn.generate_rows_per_s.b8"] = _share(layers["nn.generate_rows_b8"],
                                            layers["nn.generate_s"])
    m["nn.padded_token_share"] = 1.0 - _share(layers["nn.valid_tokens"],
                                              layers["nn.padded_tokens"])
    m["nn.gflop"] = layers["nn.flops_computed"] / 1e9
    prompts = (serve["serve.prompts.cache_hits"] +
               serve["serve.prompts.dedup_joins"] +
               serve["serve.prompts.decoded"] + serve["serve.cb.admitted"])
    m["serve.queue_wait_ms.p50"] = serve["serve.queue_wait_ms.p50"]
    m["serve.queue_wait_ms.p99"] = serve["serve.queue_wait_ms.p99"]
    m["serve.batch_size.mean"] = (serve["serve.batch_size.mean"]
                                  if serve["serve.batch_size.count"] else
                                  serve["serve.cb.admit_group_size.mean"])
    m["serve.cache.hit_share"] = _share(serve["serve.prompts.cache_hits"],
                                        prompts)
    m["serve.dedup_share"] = _share(serve["serve.prompts.dedup_joins"], prompts)
    m["serve.rejected"] = serve["serve.rows.rejected"]
    # Where no workload backend batches continuously (serve_repeat), the
    # run pushes a sample of its rows through a continuous-batching probe.
    cb = layers.get("continuous_probe", serve)
    m["serve.cb.admit_groups"] = cb["serve.cb.admit_groups"]
    m["serve.cb.steps"] = cb["serve.cb.steps"]
    m["serve.cb.rows_per_step"] = _share(cb["serve.cb.admitted"],
                                         cb["serve.cb.steps"])
    m["serve.backlog_max"] = layers["serve.backlog_max"]
    m["core.aggregate_s"] = layers["core.aggregate_s"]
    m["core.join_s"] = layers["core.join_s"]
    m["io.load_artifact_ms"] = 1000.0 * median(layers["io.load_artifact_s"])
    m["io.resident_mb"] = parse_status_kb(layers["proc_status_after_setup"],
                                          "VmRSS") / 1024.0
    m["trace.overhead_share"] = (
        (layers["wall_traced_s"] - layers["wall_untraced_s"]) /
        layers["wall_untraced_s"])
    return m


def _share(part, whole):
    return part / whole if whole else 0.0
