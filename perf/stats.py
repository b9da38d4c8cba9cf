"""Statistics and output checks of the benchmark (pure functions).

run.py feeds these the raw repetitions that usw_perf prints; the unit
tests in perf/tests exercise them without building anything.
"""

import math
import statistics

# Tolerance on the Burgers verification errors of burgers_fields. The app
# reports its error against the exact product solution but fixes no bound;
# these sit about 3x above the first-order scheme's error on that grid
# (l2 5.0e-5, linf 6.4e-4 after 10 steps), so a numerics change fails
# while the legitimate run passes.
L2_TOLERANCE = 2e-4
LINF_TOLERANCE = 2e-3

# Percentiles considered for the tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def relative_spread(values):
    """Distance between the first and third quartile over the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else math.inf


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - math.ceil(n * p / 100.0)


def tail_percentile(n):
    """Highest percentile with at least TAIL_MIN_BEYOND samples beyond it,
    or None when n is too small for any."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def percentile_value(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def summarize(values):
    """Median, quartiles, spread, tail percentile and sample count of a
    timing."""
    q1, mid, q3 = quartiles(values)
    tail = tail_percentile(len(values))
    return {
        "n": len(values),
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": relative_spread(values),
        "tail_p": tail,
        "tail_value": percentile_value(values, tail) if tail is not None else None,
    }


def steal_rate(rep):
    """Steal ticks per wall second of a call, summed over all CPUs."""
    return rep["steal_ticks"] / rep["wall_s"] if rep["wall_s"] > 0 else 0.0


def low_steal(reps):
    """The calls whose steal rate is at most the median rate of `reps`: the
    ones the hypervisor took least from. Under steady steal every call has
    about the same rate and about half are kept (all of them when the
    rates are equal, as when nothing is stolen); a burst drops the calls it
    hit. Each kept figure stays a time the call really took."""
    if not reps:
        raise ValueError("no calls to filter")
    cut = median([steal_rate(r) for r in reps])
    return [r for r in reps if steal_rate(r) <= cut]


def paired_ratio(reps, numerator="traced", denominator="run"):
    """Median over back-to-back pairs of the two kinds of the wall-time
    ratio numerator / denominator. Reps of other kinds are skipped, and so
    is a pair with a failed side; pairs are consecutive, so both sides of a
    pair see the same host noise."""
    walls = [r for r in reps if r["kind"] in (numerator, denominator)]
    ratios = []
    for a, b in zip(walls[0::2], walls[1::2]):
        if a["ok"] and b["ok"] and {a["kind"], b["kind"]} == {numerator, denominator}:
            top, bottom = (a, b) if a["kind"] == numerator else (b, a)
            ratios.append(top["wall_s"] / bottom["wall_s"])
    if not ratios:
        raise ValueError("no %s/%s pairs" % (numerator, denominator))
    return median(ratios)


def reference_signatures(reps):
    """Most common signature among the successful reps of each config
    (ties go to the one seen first)."""
    counts = {}
    for rep in reps:
        if rep["ok"]:
            per = counts.setdefault(rep["config"], {})
            per[rep["signature"]] = per.get(rep["signature"], 0) + 1
    return {config: max(per, key=per.get) for config, per in counts.items()}


def rep_failure(rep, reference):
    """Why `rep` failed, or None. A rep fails if it threw, if it differs
    from the reference of its config, if a parallel request silently ran
    serial, or if its verification errors are out of tolerance."""
    if not rep["ok"]:
        return "threw: " + rep["error"]
    if rep["signature"] != reference:
        return "virtual results or counters differ from the other repetitions"
    if rep["fallback"]:
        return "coordinator fell back to serial: " + rep["fallback"]
    if "l2_error" in rep:
        l2, linf = rep["l2_error"], rep["linf_error"]
        if not (l2 <= L2_TOLERANCE and linf <= LINF_TOLERANCE):
            return "verification error out of tolerance (l2 %g, linf %g)" % (l2, linf)
    return None


def contract_failure(reps):
    """The serial/parallel coordinator contract on the halo problem: both
    'contract' legs report bit-identical virtual step, messages and posts."""
    legs = {r["config"]: r for r in reps if r["kind"] == "contract"}
    if not legs:
        return None
    serial, parallel = legs.get("halo@serial"), legs.get("halo@parallel")
    if serial is None or parallel is None or not (serial["ok"] and parallel["ok"]):
        return "coordinator contract legs missing or failed"
    for key in ("virt_step_ps", "msgs", "posts"):
        if serial[key] != parallel[key]:
            return "serial and parallel coordinators differ in %s: %s vs %s" % (
                key, serial[key], parallel[key])
    return None


def count_failures(reps):
    """(attempted, failed, reasons) over every run_simulation call."""
    refs = reference_signatures(reps)
    reasons = []
    for rep in reps:
        why = rep_failure(rep, refs.get(rep["config"]))
        if why is not None:
            reasons.append("%s %s: %s" % (rep["kind"], rep["config"], why))
    failed = len(reasons)
    contract = contract_failure(reps)
    if contract is not None:
        reasons.append("contract: " + contract)
        failed += 1
    return len(reps), failed, reasons


def pass_fraction(attempted, failed):
    return (attempted - failed) / attempted


def estimate_seconds(per_op_us, count):
    """Replay cost per operation (µs) times the program's count of it."""
    return per_op_us * count / 1e6


def rate_estimate_seconds(count, per_second):
    """Program's count over a replayed rate (operations per second)."""
    return count / per_second if per_second > 0 else 0.0


def check_positive(metrics):
    """Raises ValueError naming the first metric that is not above 0."""
    for name, m in metrics.items():
        if not m["value"] > 0:
            raise ValueError("metric %s is %r, not above 0" % (name, m["value"]))
