"""Brute-force definitional indicator oracles, reference MFI and VPVR
streams, a reference network evaluator and reachability, and a merge-walk
compatibility distance.

Deliberately naive second implementations (window re-summation, explicit
recurrences over numpy arrays) kept independent of the streaming code under
test. Each oracle returns a list aligned with the input, None during warm-up.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from tradelab.data import Candle
from tradelab.indicators import require_period
from tradelab.neat import ArityMismatch, NodeKind, _topological_order, steep_sigmoid


def _nones(n):
    return [None] * n


def oracle_sma(closes, p):
    n = len(closes)
    out = _nones(n)
    for i in range(p - 1, n):
        out[i] = float(np.mean(closes[i - p + 1:i + 1]))
    return out


def oracle_ema(closes, p):
    n = len(closes)
    out = _nones(n)
    if n < p:
        return out
    k = 2.0 / (p + 1)
    value = float(np.mean(closes[:p]))
    out[p - 1] = value
    for i in range(p, n):
        value = k * closes[i] + (1 - k) * value
        out[i] = value
    return out


def _wilder(values, p, offset):
    """Wilder smoothing of values[offset:]; returns dict index -> value."""
    out = {}
    if len(values) - offset < p:
        return out
    value = float(np.mean(values[offset:offset + p]))
    out[offset + p - 1] = value
    for i in range(offset + p, len(values)):
        value = (value * (p - 1) + values[i]) / p
        out[i] = value
    return out


def oracle_rsi(closes, p):
    n = len(closes)
    out = _nones(n)
    gains = [0.0] * n
    losses = [0.0] * n
    for i in range(1, n):
        d = closes[i] - closes[i - 1]
        gains[i] = d if d > 0 else 0.0
        losses[i] = -d if d < 0 else 0.0
    avg_g = _wilder(gains, p, 1)
    avg_l = _wilder(losses, p, 1)
    for i in avg_g:
        g, l = avg_g[i], avg_l[i]
        if l == 0.0:
            out[i] = 50.0 if g == 0.0 else 100.0
        else:
            out[i] = 100.0 - 100.0 / (1.0 + g / l)
    return out


def _true_ranges(highs, lows, closes):
    n = len(closes)
    tr = [0.0] * n
    for i in range(1, n):
        tr[i] = max(highs[i] - lows[i],
                    abs(highs[i] - closes[i - 1]),
                    abs(lows[i] - closes[i - 1]))
    return tr


def oracle_atr(highs, lows, closes, p):
    n = len(closes)
    out = _nones(n)
    for i, v in _wilder(_true_ranges(highs, lows, closes), p, 1).items():
        out[i] = v
    return out


def oracle_macd(closes, fast, slow, signal):
    n = len(closes)
    ema_f = oracle_ema(closes, fast)
    ema_s = oracle_ema(closes, slow)
    macd = [None if (ema_f[i] is None or ema_s[i] is None) else ema_f[i] - ema_s[i]
            for i in range(n)]
    sig = _nones(n)
    defined = [i for i in range(n) if macd[i] is not None]
    if len(defined) >= signal:
        start = defined[0]
        seq = [macd[i] for i in defined]
        smoothed = oracle_ema(seq, signal)
        for j, v in enumerate(smoothed):
            if v is not None:
                sig[start + j] = v
    hist = [None if (macd[i] is None or sig[i] is None) else macd[i] - sig[i]
            for i in range(n)]
    return macd, sig, hist


def oracle_bollinger(closes, p, k):
    n = len(closes)
    upper, middle, lower = _nones(n), _nones(n), _nones(n)
    for i in range(p - 1, n):
        win = np.asarray(closes[i - p + 1:i + 1], dtype=float)
        m = float(win.mean())
        sd = float(math.sqrt(((win - m) ** 2).mean()))
        middle[i] = m
        upper[i] = m + k * sd
        lower[i] = m - k * sd
    return upper, middle, lower


def oracle_obv(closes, volumes):
    n = len(closes)
    out = [0.0] * n
    for i in range(1, n):
        if closes[i] > closes[i - 1]:
            out[i] = out[i - 1] + volumes[i]
        elif closes[i] < closes[i - 1]:
            out[i] = out[i - 1] - volumes[i]
        else:
            out[i] = out[i - 1]
    return out


def oracle_momentum(closes, p):
    n = len(closes)
    out = _nones(n)
    for i in range(p, n):
        out[i] = closes[i] - closes[i - p]
    return out


def oracle_force_index(closes, volumes, p):
    n = len(closes)
    raw = [0.0] * n
    for i in range(1, n):
        raw[i] = (closes[i] - closes[i - 1]) * volumes[i]
    out = _nones(n)
    seq = raw[1:]
    smoothed = oracle_ema(seq, p)
    for j, v in enumerate(smoothed):
        if v is not None:
            out[1 + j] = v
    return out


def oracle_mfi(highs, lows, closes, volumes, p):
    n = len(closes)
    tp = [(highs[i] + lows[i] + closes[i]) / 3.0 for i in range(n)]
    pos = [0.0] * n
    neg = [0.0] * n
    for i in range(1, n):
        flow = tp[i] * volumes[i]
        if tp[i] > tp[i - 1]:
            pos[i] = flow
        elif tp[i] < tp[i - 1]:
            neg[i] = flow
    out = _nones(n)
    for i in range(p, n):
        ps = sum(pos[i - p + 1:i + 1])
        ns = sum(neg[i - p + 1:i + 1])
        if ns == 0.0:
            out[i] = 50.0 if ps == 0.0 else 100.0
        else:
            out[i] = 100.0 - 100.0 / (1.0 + ps / ns)
    return out


def oracle_cci(highs, lows, closes, p):
    n = len(closes)
    tp = [(highs[i] + lows[i] + closes[i]) / 3.0 for i in range(n)]
    out = _nones(n)
    for i in range(p - 1, n):
        win = tp[i - p + 1:i + 1]
        m = sum(win) / p
        mad = sum(abs(x - m) for x in win) / p
        out[i] = 0.0 if mad == 0.0 else (tp[i] - m) / (0.015 * mad)
    return out


def oracle_williams_r(highs, lows, closes, p):
    n = len(closes)
    out = _nones(n)
    for i in range(p - 1, n):
        hh = max(highs[i - p + 1:i + 1])
        ll = min(lows[i - p + 1:i + 1])
        out[i] = 0.0 if hh == ll else -100.0 * (hh - closes[i]) / (hh - ll)
    return out


def oracle_adx(highs, lows, closes, p):
    n = len(closes)
    tr = _true_ranges(highs, lows, closes)
    pos_dm = [0.0] * n
    neg_dm = [0.0] * n
    for i in range(1, n):
        up = highs[i] - highs[i - 1]
        down = lows[i - 1] - lows[i]
        if up > down and up > 0:
            pos_dm[i] = up
        if down > up and down > 0:
            neg_dm[i] = down
    tr_s = _wilder(tr, p, 1)
    pos_s = _wilder(pos_dm, p, 1)
    neg_s = _wilder(neg_dm, p, 1)
    dx = [0.0] * n
    dx_start = None
    for i in tr_s:
        if tr_s[i] == 0.0:
            pdi = ndi = 0.0
        else:
            pdi = 100.0 * pos_s[i] / tr_s[i]
            ndi = 100.0 * neg_s[i] / tr_s[i]
        total = pdi + ndi
        dx[i] = 0.0 if total == 0.0 else 100.0 * abs(pdi - ndi) / total
        if dx_start is None:
            dx_start = i
    out = _nones(n)
    if dx_start is not None:
        for i, v in _wilder(dx, p, dx_start).items():
            out[i] = v
    return out


KST_SPEC = ((10, 10, 1.0), (15, 10, 2.0), (20, 10, 3.0), (30, 15, 4.0))


def oracle_kst(closes):
    n = len(closes)
    parts = []
    for roc_p, smooth_p, weight in KST_SPEC:
        roc = _nones(n)
        for i in range(roc_p, n):
            roc[i] = 100.0 * (closes[i] / closes[i - roc_p] - 1.0)
        sm = _nones(n)
        for i in range(roc_p + smooth_p - 1, n):
            win = roc[i - smooth_p + 1:i + 1]
            sm[i] = sum(win) / smooth_p
        parts.append((sm, weight))
    out = _nones(n)
    for i in range(n):
        if all(sm[i] is not None for sm, _ in parts):
            out[i] = sum(weight * sm[i] for sm, weight in parts)
    return out


def oracle_vpvr(highs, lows, closes, volumes, p, buckets):
    n = len(closes)
    tp = [(highs[i] + lows[i] + closes[i]) / 3.0 for i in range(n)]
    out = _nones(n)
    for i in range(p - 1, n):
        window = list(range(i - p + 1, i + 1))
        lo = min(tp[j] for j in window)
        hi = max(tp[j] for j in window)
        if hi == lo:
            out[i] = sum(volumes[j] for j in window)
            continue
        width = (hi - lo) / buckets
        mine = min(int((tp[i] - lo) / width), buckets - 1)
        out[i] = sum(volumes[j] for j in window
                     if min(int((tp[j] - lo) / width), buckets - 1) == mine)
    return out


# ---------------------------------------------------------------------------
# Reference streams: MFI over one window of flow tuples and VPVR by a full
# rescan of its window. The streams in tradelab.indicators must give the
# same bits on every bar.
# ---------------------------------------------------------------------------

class TupleMfiStream:
    """Money Flow Index over typical-price flows.

    A bar with unchanged typical price contributes to neither flow; zero
    negative flow reads 100, and a window with no flow at all reads 50.
    """

    def __init__(self, p: int):
        self.p = require_period(p)
        self._flows: deque[tuple[float, float]] = deque(maxlen=self.p)
        self._prev_tp: float | None = None

    def push(self, candle: Candle) -> float | None:
        tp = (candle.high + candle.low + candle.close) / 3.0
        prev = self._prev_tp
        self._prev_tp = tp
        if prev is None:
            return None
        flow = tp * candle.volume
        if tp > prev:
            self._flows.append((flow, 0.0))
        elif tp < prev:
            self._flows.append((0.0, flow))
        else:
            self._flows.append((0.0, 0.0))
        if len(self._flows) < self.p:
            return None
        pos = sum(f[0] for f in self._flows)
        neg = sum(f[1] for f in self._flows)
        if neg == 0.0:
            return 50.0 if pos == 0.0 else 100.0
        return 100.0 - 100.0 / (1.0 + pos / neg)


class RescanVpvrStream:
    """Volume-by-price over a trailing window.

    The window's typical-price range is split into ``buckets`` equal bins;
    each bar's full volume lands in the bin of its typical price. The output
    at bar i is the accumulated volume in bar i's own bin. A flat window
    degenerates to a single bin holding the whole window volume.
    """

    def __init__(self, p: int, buckets: int):
        self.p = require_period(p)
        self.buckets = require_period(buckets, "buckets")
        self._win: deque[tuple[float, float]] = deque(maxlen=self.p)

    def push(self, candle: Candle) -> float | None:
        tp = (candle.high + candle.low + candle.close) / 3.0
        self._win.append((tp, candle.volume))
        if len(self._win) < self.p:
            return None
        return self.profile_value(tp)

    def profile_value(self, tp: float) -> float:
        lo = min(t for t, _ in self._win)
        hi = max(t for t, _ in self._win)
        if hi == lo:
            return sum(v for _, v in self._win)
        width = (hi - lo) / self.buckets
        mine = min(int((tp - lo) / width), self.buckets - 1)
        total = 0.0
        for t, v in self._win:
            b = min(int((t - lo) / width), self.buckets - 1)
            if b == mine:
                total += v
        return total


class DictNetworkEvaluator:
    """Reference feed-forward evaluator that keeps node values in a dict
    keyed by node id: nodes in topological order, each summing its enabled
    incoming connections in gene order before ``steep_sigmoid``."""

    def __init__(self, genome):
        self.input_ids = genome.ids_of(NodeKind.INPUT)
        self.bias_ids = genome.ids_of(NodeKind.BIAS)
        self.output_ids = genome.ids_of(NodeKind.OUTPUT)
        order = _topological_order(genome)
        incoming = {n.id: [] for n in genome.nodes}
        for c in genome.connections:
            if c.enabled:
                incoming[c.dst].append((c.src, c.weight))
        skip = set(self.input_ids) | set(self.bias_ids)
        self._steps = [(nid, incoming[nid]) for nid in order if nid not in skip]

    def activate(self, inputs):
        if len(inputs) != len(self.input_ids):
            raise ArityMismatch(f"expected {len(self.input_ids)} inputs, got {len(inputs)}")
        values = {}
        for nid, x in zip(self.input_ids, inputs):
            values[nid] = x
        for nid in self.bias_ids:
            values[nid] = 1.0
        for nid, incoming in self._steps:
            total = 0.0
            for src, weight in incoming:
                total += values[src] * weight
            values[nid] = steep_sigmoid(total)
        return [values[nid] for nid in self.output_ids]


def fixpoint_outputs_reachable(genome):
    """Reference reachability: grow the set of fed nodes from the inputs and
    the bias over enabled genes, one sweep of all genes at a time, until a
    sweep adds nothing; True when every output is fed."""
    fed = set(genome.ids_of(NodeKind.INPUT)) | set(genome.ids_of(NodeKind.BIAS))
    grown = True
    while grown:
        grown = False
        for c in genome.connections:
            if c.enabled and c.src in fed and c.dst not in fed:
                fed.add(c.dst)
                grown = True
    return all(nid in fed for nid in genome.ids_of(NodeKind.OUTPUT))


def merge_walk_distance(a, b, config):
    """Reference compatibility distance: one merge walk over both genomes'
    innovation-ordered genes, classifying each as matching, disjoint or
    excess and summing ``|dw|`` over the matches in innovation order."""
    ca, cb = a.connections, b.connections
    ia = ib = 0
    excess = disjoint = matching = 0
    weight_diff = 0.0
    max_a = ca[-1].innovation if ca else -1
    max_b = cb[-1].innovation if cb else -1
    while ia < len(ca) or ib < len(cb):
        ga = ca[ia] if ia < len(ca) else None
        gb = cb[ib] if ib < len(cb) else None
        if ga is not None and gb is not None and ga.innovation == gb.innovation:
            matching += 1
            weight_diff += abs(ga.weight - gb.weight)
            ia += 1
            ib += 1
        elif gb is None or (ga is not None and ga.innovation < gb.innovation):
            if ga.innovation > max_b:
                excess += 1
            else:
                disjoint += 1
            ia += 1
        else:
            if gb.innovation > max_a:
                excess += 1
            else:
                disjoint += 1
            ib += 1
    n = max(len(ca), len(cb))
    if n < 20:
        n = 1
    avg_w = weight_diff / matching if matching else 0.0
    return config.c1 * excess / n + config.c2 * disjoint / n + config.c3 * avg_w
