"""Metric arithmetic of the repo benchmark (see README.md).

Every reported number is derived here from the two files the benchmark
binary writes: the raw samples of a run (`raw`, one JSON object) and,
for a traced run, its spans (`spans`, a list of JSON objects). Failed,
rejected and wrong-result queries count as failed; in latency figures
they count as infinitely slow.
"""

import math
import statistics
from statistics import median

QUERIES = range(1, 23)
TAIL_TARGET = 0.90  # the tail percentile reported, at most
MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
MIB = 1 << 20

# Flavor-set names as the engine prints them -> metric names.
FLAVOR_SETS = {
    "branch": "branch",
    "compiler": "compiler",
    "fission": "fission",
    "fullcompute": "full",
    "unroll": "unroll",
    "simd": "simd",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "power_geomean_ms": "ms",
    "stream_s": "s",
    "qps": "1/s",
    "latency_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {
        "tpch.generate_s": "s",
        "plan.compile_ms": "ms",
        "plan.stages": "count",
    }
    units.update({f"query.Q{q:02d}_ms": "ms" for q in QUERIES})
    units["exec.wall_Mcycles"] = "Mcycles"
    units.update({f"exec.mem_peak_mib.Q{q:02d}": "MiB" for q in QUERIES})
    units.update({
        "prim.cpu_Mcycles": "Mcycles",
        "prim.cycles_per_tuple": "cycles/tuple",
        "adapt.best_flavor_tuple_share": "ratio",
        "adapt.sites": "count",
    })
    units.update({f"adapt.set.{s}_Mcycles": "Mcycles"
                  for s in FLAVOR_SETS.values()})
    units.update({
        "serve.queue_wait_ms.p50": "ms",
        "serve.queue_wait_ms.p90": "ms",
        "serve.exec_ms.p50": "ms",
        "serve.exec_ms.p90": "ms",
        "serve.attempts_per_query": "count",
        "serve.retries": "count",
        "serve.degraded_share": "ratio",
        "serve.rejected_share": "ratio",
        "knowledge.plan_cache_hit_rate": "ratio",
        "knowledge.profiles_merged": "count",
        "knowledge.store_profiles": "count",
        "trace.overhead_frac": "ratio",
    })
    return units


# --- Arithmetic -------------------------------------------------------


def geomean(values):
    """Geometric mean of positive values; infinite if any value is."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    if any(math.isinf(v) for v in values):
        return math.inf
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_percentile(values, target=TAIL_TARGET, min_beyond=MIN_BEYOND):
    """The highest nearest-rank percentile, at most `target`, that has at
    least `min_beyond` samples beyond it.

    Returns (percentile, value, sample_count).
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = min(math.ceil(target * n), n - min_beyond)
    if rank < 1:
        raise ValueError(
            f"{n} samples leave fewer than {min_beyond} beyond any percentile")
    return rank / n, ordered[rank - 1], n


def latency(sample):
    """A sample's latency in ms; failed queries count as infinite."""
    return sample["ms"] if sample["ok"] else math.inf


def failed_frac(attempted, failed):
    if attempted < 1:
        raise ValueError("nothing attempted")
    return failed / attempted


def per_query_medians(items, value):
    """Median of value(item) per query id over items grouped by "query"."""
    groups = {}
    for item in items:
        groups.setdefault(item["query"], []).append(value(item))
    return {q: median(v) for q, v in groups.items()}


# --- Raw samples ------------------------------------------------------


def load_raw(raw):
    """Turns the binary's compact sample and stream arrays into dicts."""
    raw = dict(raw)
    raw["samples"] = [
        {"query": q, "ms": math.inf if ms is None else ms, "ok": bool(ok),
         "traced": bool(traced)}
        for q, ms, ok, traced in raw["samples"]
    ]
    raw["streams"] = [{"seconds": s, "traced": bool(t)}
                      for s, t in raw["streams"]]
    return raw


def counts(raw):
    """(attempted, failed) over the timed queries of a run."""
    samples = raw["samples"]
    return len(samples), sum(1 for s in samples if not s["ok"])


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, plus the details that
    stand behind them (sample counts, the percentile actually used)."""
    samples = [s for s in raw["samples"] if not s["traced"]]
    streams = [s["seconds"] for s in raw["streams"] if not s["traced"]]
    lat = [latency(s) for s in samples]
    per_query = per_query_medians(samples, latency)
    missing = [q for q in QUERIES if q not in per_query]
    if missing:
        raise ValueError(f"no timed sample of queries {missing}")
    p90_pct, p90, n = tail_percentile(lat)
    ok = sum(1 for s in samples if s["ok"])
    metrics = {
        "setup_s": median(raw["setup_s"]),
        "power_geomean_ms": geomean(per_query[q] for q in QUERIES),
        "stream_s": median(streams),
        "qps": ok / raw["measured_s"],
        "latency_p90_ms": p90,
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    details = {
        # Reported, not a metric: see "End-to-end metrics" in README.md.
        "latency_p50_ms": median(lat),
        "latency_samples": n,
        "latency_p90_percentile_used": p90_pct,
        "streams": len(streams),
        "setups": len(raw["setup_s"]),
    }
    return metrics, details


# --- Spans ------------------------------------------------------------


def _duration_ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def _affected_cycles(site, flavor_set):
    if flavor_set not in site["sets"]:
        return 0
    return sum(f["cycles"] for f in site["flavors"])


def best_flavor_tuples(site):
    """(tuples run on the site's cheapest flavor, tuples of the site).

    The cheapest flavor is the one with the fewest timed cycles per timed
    tuple. Sites that timed fewer than two flavors had nothing to choose
    from and return None.
    """
    timed = [f for f in site["flavors"] if f["timed_tuples"] > 0]
    if len(timed) < 2:
        return None
    best = min(timed, key=lambda f: f["cycles"] / f["timed_tuples"])
    return best["tuples"], sum(f["tuples"] for f in site["flavors"])


def profile_totals(sites):
    """Per-profile sums: adaptive sites, their tuples and the tuples run
    on each one's cheapest flavor, primitive cycles and tuples, and the
    cycles of the sites each flavor set affects."""
    t = {"sites": 0, "best_tuples": 0, "site_tuples": 0, "cycles": 0,
         "tuples": 0}
    for name in FLAVOR_SETS:
        t[name] = 0
    for site in sites:
        t["cycles"] += sum(f["cycles"] for f in site["flavors"])
        t["tuples"] += sum(f["tuples"] for f in site["flavors"])
        for name in FLAVOR_SETS:
            t[name] += _affected_cycles(site, name)
        best = best_flavor_tuples(site)
        if best is not None:
            t["sites"] += 1
            t["best_tuples"] += best[0]
            t["site_tuples"] += best[1]
    return t


def per_layer(raw, spans):
    """Every per-layer metric of a traced run, from its spans (and the
    counters they carry) plus the run's untraced streams, and the sample
    counts behind them."""
    by_id = {s["id"]: s for s in spans}

    def parent_name(span):
        parent = by_id.get(span["parent"])
        return parent["name"] if parent else None

    def named(name, parent=None):
        return [s for s in spans if s["name"] == name
                and (parent is None or parent_name(s) == parent)]

    m, details = {}, {}
    # tpch / storage and plan: the set-up repetitions.
    m["tpch.generate_s"] = median(_duration_ms(s)
                                  for s in named("tpch.Generate")) / 1e3
    compile_ms, stages = [], []
    for setup in named("setup"):
        compiles = [s for s in spans if s["parent"] == setup["id"]
                    and s["name"] == "plan.Compiler.BuildStagePlan"]
        compile_ms.append(sum(_duration_ms(s) for s in compiles))
        stages.append(sum(s["counters"]["stages"] for s in compiles))
    m["plan.compile_ms"] = median(compile_ms)
    m["plan.stages"] = median(stages)

    # Queries: the timed power passes, or the served queries.
    runs = named("plan.QuerySession.Run", parent="pass")
    serve_queries = named("serve.query")
    queries = runs or serve_queries
    details["traced_query_calls"] = len(queries)

    def query_ms(span):
        return _duration_ms(span) if span["counters"]["ok"] else math.inf

    q_ms = per_query_medians(queries, query_ms)
    for q in QUERIES:
        m[f"query.Q{q:02d}_ms"] = q_ms.get(q, math.inf)

    def summed_medians(counter):
        med = per_query_medians(queries, lambda s: s["counters"][counter])
        return sum(med.values())

    m["exec.wall_Mcycles"] = summed_medians("total_cycles") / 1e6
    # Memory peaks of the traced passes; the serve workload reads those
    # of its untimed serial reference and staged probe passes, which set
    # its per-query budget.
    peaks = {}
    for s in runs or named("plan.QuerySession.Run"):
        if s["counters"]["accounting"]:
            peaks[s["query"]] = max(peaks.get(s["query"], 0),
                                    s["counters"]["mem_peak_bytes"])
    for q in QUERIES:
        m[f"exec.mem_peak_mib.Q{q:02d}"] = peaks.get(q, 0) / MIB
    m["prim.cpu_Mcycles"] = summed_medians("prim_cycles") / 1e6

    # prim / adapt: the per-site profiles. Only a serial run's profile
    # covers the whole query (after a staged run Profile() holds the
    # last parallel stage only), so other workloads report 0 here.
    totals = []
    if raw["meta"]["workload"] == "tpch_power_serial":
        passes = {}
        for s in named("plan.QuerySession.Profile", parent="pass"):
            passes.setdefault(s["parent"], []).extend(s["detail"])
        totals = [profile_totals(sites) for sites in passes.values()]

    def pass_median(f):
        return median(f(t) for t in totals) if totals else 0

    m["prim.cycles_per_tuple"] = pass_median(
        lambda t: t["cycles"] / t["tuples"])
    m["adapt.best_flavor_tuple_share"] = pass_median(
        lambda t: t["best_tuples"] / t["site_tuples"])
    m["adapt.sites"] = pass_median(lambda t: t["sites"])
    for name, metric in FLAVOR_SETS.items():
        m[f"adapt.set.{metric}_Mcycles"] = pass_median(
            lambda t, name=name: t[name]) / 1e6

    # serve / knowledge: the served queries and the server's counters
    # at shutdown; 0 on the power workloads, which bypass both layers.
    for name in ("queue_wait_ms", "exec_ms"):
        values = [s["counters"][name] for s in serve_queries]
        m[f"serve.{name}.p50"] = median(values) if values else 0
        m[f"serve.{name}.p90"] = 0
        if values:
            pct, m[f"serve.{name}.p90"], _ = tail_percentile(values)
            details["serve_p90_percentile_used"] = pct
    m["serve.attempts_per_query"] = (
        statistics.fmean(s["counters"]["attempts"] for s in serve_queries)
        if serve_queries else 0)
    shutdown = named("serve.WorkloadServer.Shutdown")
    st = shutdown[0]["counters"] if shutdown else {}

    def ratio(num, den):
        return st[num] / st[den] if st.get(den) else 0

    m["serve.retries"] = st.get("retries", 0)
    m["serve.degraded_share"] = ratio("degraded_to_serial", "executed")
    m["serve.rejected_share"] = ratio("rejected", "submitted")
    lookups = st.get("plan_cache_hits", 0) + st.get("plan_cache_misses", 0)
    m["knowledge.plan_cache_hit_rate"] = (
        st["plan_cache_hits"] / lookups if lookups else 0)
    m["knowledge.profiles_merged"] = st.get("profiles_merged", 0)
    m["knowledge.store_profiles"] = st.get("store_profiles", 0)

    # trace: traced against untraced 22-query passes of the same run.
    m["trace.overhead_frac"] = 0
    if runs:
        traced = {}
        for s in runs:
            traced[s["parent"]] = traced.get(s["parent"], 0) + _duration_ms(s)
        untraced = [s["seconds"] for s in raw["streams"] if not s["traced"]]
        m["trace.overhead_frac"] = (
            median(traced.values()) / 1e3 / median(untraced) - 1)
        details["traced_passes"] = len(traced)
        details["untraced_passes"] = len(untraced)
    return m, details
