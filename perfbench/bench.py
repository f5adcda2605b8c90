"""Pure parts of the repo benchmark: statistics, workload plans and metrics.

run.py does the I/O (build, weights, running ppbench); everything here is a
function of its arguments, so tests/ can check it without a build.
"""

import math
import random
import statistics

# --------------------------------------------------------------------------
# Statistics


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values, q, beyond=10):
    """The q-th percentile, only if at least `beyond` samples lie above it.

    A tail figure with fewer samples beyond it is the maximum of a handful
    of values, not a percentile, so it raises instead of reporting one.
    """
    n = len(values)
    above = n - max(1, math.ceil(q / 100.0 * n))
    if above < beyond:
        raise ValueError(
            f"p{q:g} of {n} samples has {above} beyond it, need {beyond}")
    return percentile(values, q)


# --------------------------------------------------------------------------
# Workload plans: every input the program sees, made from the seed only.


def poisson_arrivals(rng, rate_per_s, n):
    """n arrival times (s) of a Poisson process with the given rate."""
    t, out = 0.0, []
    for _ in range(n):
        t += -math.log(1.0 - rng.random()) / rate_per_s
        out.append(t)
    return out


def _expand_counts(pairs):
    """[[value, n], ...] -> a list holding each value n times."""
    return [v for v, n in pairs for _ in range(n)]


def request_stream(rng, mix, ops):
    """New requests in blocks whose mix is exact.

    Each block holds every (steps, count) row of `mix` and every op of `ops`
    exactly as often as config.json says, in a seed-shuffled order. So
    every stretch of traffic carries the same share of samples in each
    steps class, and the p50 and p95 of a run fall in the same class for
    every seed. A row is [steps, count, requests per block, model keys];
    the rows of one steps class list the same keys. Each steps class deals
    its keys in order from a seed-chosen offset, so its requests spread
    over them.
    """
    rows = [(steps, count, keys)
            for steps, count, n, keys in mix for _ in range(n)]
    ops = _expand_counts(ops)
    if len(ops) != len(rows):
        raise ValueError(f"ops mix has {len(ops)} entries, block has "
                         f"{len(rows)} rows")
    while True:
        rng.shuffle(ops)
        next_key = {}
        block = []
        for steps, count, keys in rows:
            k = next_key.setdefault(steps, rng.randrange(len(keys)))
            next_key[steps] = k + 1
            block.append((steps, count, keys[k % len(keys)]))
        rng.shuffle(block)
        for (steps, count, model), op in zip(block, ops):
            yield {
                "model": model,
                "op": op,
                "seed": rng.randrange(1, 2**52),
                "count": count,
                "steps": steps,
                "tmpl": rng.randrange(10) if op == "inpaint" else -1,
                "mask_id": rng.randrange(10) if op == "inpaint" else -1,
                "repeat_of": -1,
            }


def serve_open_schedule(seed, cfg):
    """The open phase: Poisson arrivals carrying the request mix.

    Every spaced_every-th arrival (from a seed-chosen phase) is a long
    request, its class cycling through spaced_steps in order; the other
    arrivals are short requests and verbatim repeats. So two long requests
    are always spaced_every arrivals apart and seldom run at once, and a
    short request's latency depends on the server, not on how the seed
    happened to bunch the long ones. Each block of arrivals holds one block
    of new requests (request_stream) plus repeats_per_block repeats, so
    every class keeps the same share, cache hits included.

    A repeat copies an earlier original that was due at least
    repeat_min_age_s before it, so the original has normally completed and
    the repeat is a generation-cache hit. Early slots with no such original
    take a new request instead.
    """
    rng = random.Random(f"open/{seed}")
    fresh = request_stream(rng, cfg["mix"], cfg["ops"])
    n = cfg["open_requests"]
    every = cfg["spaced_every"]
    spaced = cfg["spaced_steps"]
    block = sum(r[2] for r in cfg["mix"]) + cfg["repeats_per_block"]
    rows = {}
    for steps, _, k, _ in cfg["mix"]:
        rows[steps] = rows.get(steps, 0) + k
    for steps in spaced:
        if rows[steps] * len(spaced) * every != block:
            raise ValueError(f"steps class {steps} does not fill its "
                             "spaced slots exactly")
    times = poisson_arrivals(rng, cfg["open_rate_per_s"], n)
    phase = rng.randrange(every)
    queues = {}

    def pop(kind):
        while not queues.get(kind):
            for _ in range(block - cfg["repeats_per_block"]):
                r = next(fresh)
                queues.setdefault(r["steps"] if r["steps"] in spaced
                                  else "short", []).append(r)
        return queues[kind].pop(0)

    repeat_slots = set()
    for b in range(0, n, block):
        slots = [i for i in range(b, min(n, b + block))
                 if i % every != phase]
        repeat_slots.update(rng.sample(slots, min(len(slots),
                                                  cfg["repeats_per_block"])))
    reqs = []
    for i, t in enumerate(times):
        old = [j for j in range(i) if reqs[j]["repeat_of"] < 0
               and times[j] <= t - cfg["repeat_min_age_s"]]
        if i % every == phase:
            req = pop(spaced[(i // every) % len(spaced)])
        elif i in repeat_slots and old:
            j = rng.choice(old)
            req = dict(reqs[j], repeat_of=j)
        else:
            req = pop("short")
        req["t"] = t
        reqs.append(req)
    return reqs


def balanced_starters(rng, n, k, pool=10):
    """n draws of k distinct starter indices that cover the pool evenly.

    The draws are successive chunks of seed-shuffled permutations of the
    pool, so any run of draws uses every starter about equally often and
    the seed changes which starters meet, not how often each appears.
    """
    seq, draws = [], []
    for _ in range(n):
        while len(set(seq)) < k:
            perm = list(range(pool))
            rng.shuffle(perm)
            seq += perm
        draw, rest = [], []
        for x in seq:
            if len(draw) < k and x not in draw:
                draw.append(x)
            else:
                rest.append(x)
        draws.append(draw)
        seq = rest
    return draws


def make_plan(workload, seed, seconds, trace, cfg):
    """The complete input of one ppbench run."""
    rng = random.Random(f"{workload}/{seed}")
    plan = {"workload": workload, "seconds": seconds, "trace": bool(trace),
            "setup_repeats": cfg["setup_repeats"]}
    if workload == "library":
        c = cfg["library"]
        plan["library"] = {
            "variations": c["variations"], "rounds": c["rounds"],
            "samples": c["samples"], "min_loops": c["min_loops"],
            "loops": [{"seed": rng.randrange(1, 2**52), "starters": st}
                      for st in balanced_starters(rng, c["max_loops"],
                                                  c["starters"])]}
    elif workload == "expand":
        c = cfg["expand"]
        plan["expand"] = {
            "size": c["size"], "min_canvases": c["min_canvases"],
            "canvases": [{"seed": rng.randrange(1, 2**52), "starter": st[0]}
                         for st in balanced_starters(rng, c["max_canvases"], 1)],
            "check": {"size": c["check_size"], "seed": rng.randrange(1, 2**52),
                      "starter": rng.randrange(10)}}
    elif workload == "serve":
        c = cfg["serve"]
        open_reqs = serve_open_schedule(seed, c)
        bulk = request_stream(rng, c["bulk_mix"], c["bulk_ops"])
        originals = [i for i, r in enumerate(open_reqs) if r["repeat_of"] < 0]
        plan["serve"] = {
            "models": c["models"], "cache_entries": c["cache_entries"],
            "max_conns": c["max_conns"],
            "reply_timeout_s": c["reply_timeout_s"],
            "bulk_outstanding": c["bulk_outstanding"],
            # The open phase lasts about open_requests / rate; bulk takes
            # the rest of the run, at least min_bulk_seconds.
            "bulk_seconds": max(c["min_bulk_seconds"],
                                seconds - c["open_requests"] / c["open_rate_per_s"]),
            "bulk_group_samples": c["bulk_group_samples"],
            "bulk_warmup_s": c["bulk_warmup_s"],
            "bulk_quality_requests": c["bulk_quality_requests"],
            "open": open_reqs,
            "bulk": [next(bulk) for _ in range(c["bulk_requests"])],
            "verify": sorted(rng.sample(originals, c["verify"]))}
    else:
        raise ValueError(f"unknown workload {workload}")
    return plan


# --------------------------------------------------------------------------
# Metrics from one run's raw output.


def tally(outcomes):
    """(attempted, failed, failures by reason) from per-operation outcomes."""
    failed = {}
    for o in outcomes:
        if o != "ok":
            failed[o] = failed.get(o, 0) + 1
    return len(outcomes), sum(failed.values()), failed


def end_to_end(raw, workload_cfg):
    """The end-to-end metrics of an untraced run."""
    rates = [n / s for n, s in zip(raw["rate_items"], raw["rate_secs"])]
    segs = raw["latency_segments"]
    limit = workload_cfg["latency_limit_ms"]
    if len(segs) == 1:
        # One segment (serve's open phase, in arrival order): p50 over every
        # request. p95 per consecutive block of p95_blocks, median over the
        # blocks, so a disturbed stretch of the run does not set the figure.
        # Each block must support its own tail; a p95 without ten answered
        # requests beyond it in every block is left out.
        lat = segs[0]
        k = workload_cfg.get("p95_blocks", 1)
        p50 = percentile(lat, 50)
        try:
            p95 = statistics.median(
                tail_percentile(lat[i * len(lat) // k:(i + 1) * len(lat) // k],
                                95) for i in range(k))
        except ValueError:
            p95 = None
    else:
        # Many segments (loops, canvases): each segment's percentile, median
        # over segments, so one disturbed segment does not set the figure.
        p50 = statistics.median([percentile(s, 50) for s in segs])
        p95 = statistics.median([percentile(s, 95) for s in segs])
    within = sum(1 for s in segs for x in s if x <= limit)
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "samples_per_s": statistics.median(rates),
        "legal_rate": raw["legal"] / raw["samples_checked"],
        "h2": raw["h2"],
        "violations_per_kpx": raw["violations"] / (raw["pixels"] / 1000.0),
        "p50_ms": p50,
        "p95_ms": p95,
        "slo_frac": within / raw["latency_requested"],
    }
    return {k: v for k, v in metrics.items() if v is not None}


def _span(layers, name, field):
    row = layers["spans"].get(name)
    return row[field] if row else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def _pct(layers, key, q):
    """q-th percentile of a per-request list; 0 when the workload has none."""
    values = layers.get(key)
    return percentile(values, q) if values else 0.0


def per_layer(raw):
    """The per-layer metrics of a traced run. A layer the workload does not
    reach reads 0."""
    L = raw["layers"]
    c = L["counters"]
    items = L["work_items"]
    sample_steps = L["sample_steps"]
    conv = sum(_span(L, n, "total_ms")
               for n in ("nn.conv2d.gemm", "nn.conv2d.direct"))
    unet = _span(L, "unet.infer", "total_ms")
    jobs, inline = c["pool.jobs"], c["pool.inline_jobs"]
    return {
        "common.pool_jobs": _ratio(jobs, items),
        "common.pool_inline_share": _ratio(inline, jobs + inline),
        "common.pool_wait_ms": _ratio(c["pool.job_wait_ns.sum"],
                                      c["pool.job_wait_ns.count"]) / 1e6,
        "common.pool_busy_frac": c["pool.busy_frac"],
        "nn.conv_ms_per_sample_step": _ratio(conv, sample_steps),
        "nn.conv_share_of_unet": _ratio(conv, unet),
        "diffusion.unet_ms_per_sample_step": _ratio(unet, sample_steps),
        "diffusion.samples_per_unet_call": _ratio(
            sample_steps, _span(L, "unet.infer", "count")),
        "diffusion.inpaint_calls": c["ddpm.inpaint.calls"],
        "denoise.ms_per_call": _ratio(_span(L, "denoise.template", "self_ms"),
                                      _span(L, "denoise.template", "count")),
        "denoise.pixels_repaired": _ratio(c["denoise.pixels_repaired"], items),
        "drc.ms_per_check": _ratio(_span(L, "drc.check", "self_ms"),
                                   _span(L, "drc.check", "count")),
        "drc.clean_ratio": _ratio(c["drc.clean"], c["drc.checks"]),
        "select.ms_per_round": _ratio(
            _span(L, "select.representatives", "total_ms"),
            _span(L, "select.representatives", "count")),
        "core.initial_generation_ms": _pct(L, "init_ms", 50),
        "core.iteration_round_ms": _pct(L, "round_ms", 50),
        "core.finish_ms_per_sample": _ratio(_span(L, "pp.finish", "total_ms"),
                                            items),
        "serve.queue_wait_p95_ms": _pct(L, "queue_wait_ms", 95),
        "serve.server_e2e_p95_ms": _pct(L, "server_e2e_ms", 95),
        "serve.batch_samples_mean": _ratio(c["serve.batch_samples.sum"],
                                           c["serve.batch_samples.count"]),
        "serve.joins": _ratio(c["serve.joins"], items),
        "serve.repacks": _ratio(c["serve.repacks"], items),
        "serve.shard_served_min_share": _ratio(
            min(L.get("shard_served", [0])), sum(L.get("shard_served", [0]))),
        "serve.cache_hit_ratio": _ratio(L.get("cache_hits", 0),
                                        L.get("ok_requests", 0)),
        "net.wire_overhead_p50_ms": _pct(L, "wire_overhead_ms", 50),
        "net.lines": c["serve.net.lines"],
        "expand.windows_per_wave": _ratio(c["expand.windows"], c["expand.waves"]),
        "expand.wave_ms": _ratio(_span(L, "expand.wave", "total_ms"),
                                 _span(L, "expand.wave", "count")),
        "expand.seam_violations": c["expand.seam_violations"],
        "expand.seam_per_window": _ratio(c["expand.seam_violations"],
                                         c["expand.windows"]),
        "obs.trace_overhead_frac": L["trace_overhead_frac"],
        "obs.dropped_spans": L["dropped_spans"],
        "obs.span_coverage": _ratio(L["covered_ms"], L["core_ms"]),
    }
