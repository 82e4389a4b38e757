"""Per-tenant live dashboard: self-contained HTML over one scrape.

``render_dashboard`` turns one Prometheus text exposition — exactly
what ``GET /metrics`` returns — into a single dependency-free HTML
page: per-tenant op-latency histograms with the serve SLO threshold
drawn on them, device-cycle attribution, shed/quota rejections, and
worker-pool health.  The server mounts it at ``GET /debug/dashboard``;
``repro-obs dashboard`` renders the same page from a scrape file or a
live endpoint.

Two contracts keep the page honest:

* **numbers come from the scrape, nothing else** — the page embeds its
  parsed dataset as a ``<script type="application/json">`` block
  (:func:`dashboard_data`), so ``tools/serve_gate.py`` can assert
  the dashboard agrees with the scrape byte-for-byte;
* **no dependencies, no JS** — charts are server-rendered inline SVG
  with native ``<title>`` hover tooltips, and every figure also
  appears in a plain table (the accessibility relief for low-contrast
  marks).

The categorical palette (3 slots max; extra tenants fold into a table
row) and its dark-mode steps were validated for CVD separation,
normal-vision separation, and surface contrast in both modes.
"""

from __future__ import annotations

import html
import json
import re
from typing import Dict, List, Optional, Tuple

#: Schema tag of the embedded JSON data block.
DASHBOARD_SCHEMA = "repro-dashboard-v1"

#: Metric-name prefix of the per-op serve latency histograms
#: (``repro.serve.quotas``); ops are discovered from the scrape.
LATENCY_PREFIX = "serve_tenant_op_latency_seconds_"

#: Default latency objective drawn on every histogram — mirrors
#: ``repro.serve.quotas.SERVE_LATENCY_SLO_SECONDS`` (an exact bucket
#: bound, so SLO compliance is one cumulative bucket read).
DEFAULT_SLO_SECONDS = 0.025

#: Validated categorical slots (light, dark): tenants beyond three
#: keep their table rows but share the overflow color.
_SERIES_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a")
_SERIES_DARK = ("#3987e5", "#d95926", "#199e70")
_OVERFLOW_LIGHT = "#52514e"
_OVERFLOW_DARK = "#c3c2b7"

_SAMPLE_RE = re.compile(
    r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$"
)
_LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape(value: str) -> str:
    return (
        value.replace("\\\\", "\x00")
        .replace('\\"', '"')
        .replace("\\n", "\n")
        .replace("\x00", "\\")
    )


def parse_prometheus(
    text: str,
) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Parse text exposition into ``{name: [(labels, value), ...]}``.

    Comment (``# HELP`` / ``# TYPE``) and blank lines are skipped;
    unparsable sample lines raise ``ValueError`` — a dashboard fed a
    corrupt scrape must fail loudly, not render zeros.
    """
    samples: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(
                f"scrape line {lineno} is not a metric sample: {line!r}"
            )
        name, raw_labels, raw_value = match.groups()
        labels = {
            key: _unescape(val)
            for key, val in _LABEL_RE.findall(raw_labels or "")
        }
        try:
            value = float(raw_value)
        except ValueError as err:
            raise ValueError(
                f"scrape line {lineno} has non-numeric value "
                f"{raw_value!r}"
            ) from err
        samples.setdefault(name, []).append((labels, value))
    return samples


def _by_tenant(
    samples: Dict[str, List[Tuple[Dict[str, str], float]]],
    name: str,
) -> Dict[str, float]:
    return {
        labels["tenant"]: value
        for labels, value in samples.get(name, [])
        if "tenant" in labels
    }


def _scalar(
    samples: Dict[str, List[Tuple[Dict[str, str], float]]],
    name: str,
) -> Optional[float]:
    for labels, value in samples.get(name, []):
        if not labels:
            return value
    return None


def dashboard_data(
    scrape: str, slo_seconds: float = DEFAULT_SLO_SECONDS
) -> dict:
    """Extract the dashboard's dataset from one scrape.

    This dict *is* the page's embedded JSON block — the gate parses
    the served HTML and asserts these figures equal its own read of
    ``/metrics``.  Bucket bounds keep their scrape spelling
    (``"+Inf"`` included) so the comparison never rounds.
    """
    samples = parse_prometheus(scrape)
    tenants = sorted(
        set(_by_tenant(samples, "serve_tenant_requests_total"))
        | set(_by_tenant(samples, "serve_tenant_device_cycles_total"))
    )
    ops = sorted(
        {
            name[len(LATENCY_PREFIX):-len("_bucket")]
            for name in samples
            if name.startswith(LATENCY_PREFIX)
            and name.endswith("_bucket")
        }
    )
    data: dict = {
        "schema": DASHBOARD_SCHEMA,
        "slo_seconds": slo_seconds,
        "ops": ops,
        "tenants": {},
        "workers": {
            "alive": _scalar(samples, "serve_workers_alive") or 0.0,
            "dead": _scalar(samples, "serve_workers_dead") or 0.0,
        },
        "server": {
            "requests_total": (
                _scalar(samples, "serve_requests_total") or 0.0
            ),
            "rejected_total": (
                _scalar(samples, "serve_rejected_total") or 0.0
            ),
            "flight_dumps_total": (
                _scalar(samples, "serve_flight_dumps_total") or 0.0
            ),
        },
    }
    for tenant in tenants:
        latency: dict = {}
        for op in ops:
            base = f"{LATENCY_PREFIX}{op}"
            buckets = sorted(
                (
                    (labels["le"], value)
                    for labels, value in samples.get(
                        f"{base}_bucket", []
                    )
                    if labels.get("tenant") == tenant and "le" in labels
                ),
                key=lambda pair: float(pair[0]),
            )
            count = _by_tenant(samples, f"{base}_count").get(tenant)
            total = _by_tenant(samples, f"{base}_sum").get(tenant)
            if count is None:
                continue
            within = None
            if count > 0:
                for bound, cumulative in buckets:
                    if abs(float(bound) - slo_seconds) < 1e-12:
                        within = cumulative / count
                        break
            latency[op] = {
                "count": count,
                "sum": total if total is not None else 0.0,
                "buckets": [[bound, cum] for bound, cum in buckets],
                "within_slo": within,
            }
        data["tenants"][tenant] = {
            "requests": _by_tenant(
                samples, "serve_tenant_requests_total"
            ).get(tenant, 0.0),
            "rejected": _by_tenant(
                samples, "serve_tenant_rejected_total"
            ).get(tenant, 0.0),
            "shed": _by_tenant(
                samples, "serve_tenant_shed_total"
            ).get(tenant, 0.0),
            "device_cycles": _by_tenant(
                samples, "serve_tenant_device_cycles_total"
            ).get(tenant, 0.0),
            "sessions_live": _by_tenant(
                samples, "serve_tenant_sessions_live"
            ).get(tenant, 0.0),
            "latency": latency,
        }
    return data


# -- SVG helpers -------------------------------------------------------------


def _fmt(value: float) -> str:
    """Compact human figure for direct labels."""
    if value == int(value) and abs(value) < 1e7:
        return str(int(value))
    if abs(value) >= 1e6:
        return f"{value:.3g}"
    return f"{value:.4g}"


def _esc(text: str) -> str:
    return html.escape(text, quote=True)


def _hbar_chart(
    rows: List[Tuple[str, float, int]], unit: str
) -> str:
    """Horizontal bars: ``rows`` are (label, value, series slot).

    Direct value labels on every bar (the contrast relief), native
    ``<title>`` hover tooltips, one x scale.
    """
    if not rows:
        return '<p class="empty">no data yet</p>'
    width, bar_h, gap, label_w = 640, 18, 8, 130
    peak = max(value for _l, value, _s in rows) or 1.0
    plot_w = width - label_w - 90
    height = len(rows) * (bar_h + gap) + gap
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'class="chart" aria-label="bar chart ({_esc(unit)})">'
    ]
    for i, (label, value, slot) in enumerate(rows):
        y = gap + i * (bar_h + gap)
        w = max(1.0, plot_w * value / peak) if value > 0 else 0.0
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 5}" '
            f'text-anchor="end" class="lbl">{_esc(label)}</text>'
        )
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{w:.1f}" '
            f'height="{bar_h}" rx="2" class="s{slot}">'
            f"<title>{_esc(label)}: {_fmt(value)} {_esc(unit)}</title>"
            f"</rect>"
        )
        parts.append(
            f'<text x="{label_w + w + 6:.1f}" y="{y + bar_h - 5}" '
            f'class="val">{_fmt(value)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _grouped_bars(
    rows: List[Tuple[str, float, float]],
    series: Tuple[str, str],
) -> str:
    """Two-series grouped horizontal bars (legend chips rendered by
    the caller); rows are (label, value_a, value_b)."""
    if not rows:
        return '<p class="empty">no data yet</p>'
    width, bar_h, gap, label_w = 640, 12, 4, 130
    peak = max(
        [v for _l, a, b in rows for v in (a, b)], default=0.0
    ) or 1.0
    plot_w = width - label_w - 90
    group_h = 2 * bar_h + gap
    height = len(rows) * (group_h + 10) + 10
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'class="chart" aria-label="grouped bar chart">'
    ]
    for i, (label, val_a, val_b) in enumerate(rows):
        y = 10 + i * (group_h + 10)
        parts.append(
            f'<text x="{label_w - 8}" y="{y + group_h - 8}" '
            f'text-anchor="end" class="lbl">{_esc(label)}</text>'
        )
        for j, (value, name) in enumerate(
            ((val_a, series[0]), (val_b, series[1]))
        ):
            by = y + j * (bar_h + gap)
            w = max(1.0, plot_w * value / peak) if value > 0 else 0.0
            parts.append(
                f'<rect x="{label_w}" y="{by}" width="{w:.1f}" '
                f'height="{bar_h}" rx="2" class="s{j}">'
                f"<title>{_esc(label)} {_esc(name)}: "
                f"{_fmt(value)}</title></rect>"
            )
            parts.append(
                f'<text x="{label_w + w + 6:.1f}" y="{by + bar_h - 2}"'
                f' class="val">{_fmt(value)}</text>'
            )
    parts.append("</svg>")
    return "".join(parts)


def _histogram_svg(
    buckets: List[List[object]], slo_seconds: float
) -> str:
    """Per-bucket (de-cumulated) histogram with the SLO line.

    Bins render equal-width (the bounds are log-spaced); the SLO line
    sits on the right edge of its exact bucket bound.
    """
    if not buckets:
        return '<p class="empty">no observations</p>'
    counts: List[Tuple[str, float]] = []
    previous = 0.0
    for bound, cumulative in buckets:
        counts.append((str(bound), float(cumulative) - previous))
        previous = float(cumulative)
    width, height, base = 300, 96, 72
    bin_w = width / len(counts)
    peak = max(c for _b, c in counts) or 1.0
    slo_x = None
    for i, (bound, _c) in enumerate(counts):
        try:
            if abs(float(bound) - slo_seconds) < 1e-12:
                slo_x = (i + 1) * bin_w
        except ValueError:
            continue
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'class="chart hist" aria-label="latency histogram">'
    ]
    for i, (bound, count) in enumerate(counts):
        bar_h = (base - 6) * count / peak if count > 0 else 0.0
        x = i * bin_w + 1
        parts.append(
            f'<rect x="{x:.1f}" y="{base - bar_h:.1f}" '
            f'width="{bin_w - 2:.1f}" height="{bar_h:.1f}" rx="2" '
            f'class="s0"><title>le {_esc(str(bound))}s: '
            f"{_fmt(count)} requests</title></rect>"
        )
    parts.append(
        f'<line x1="0" y1="{base}" x2="{width}" y2="{base}" '
        f'class="axis"/>'
    )
    if slo_x is not None:
        parts.append(
            f'<line x1="{slo_x:.1f}" y1="6" x2="{slo_x:.1f}" '
            f'y2="{base}" class="slo"/>'
            f'<text x="{min(slo_x + 4, width - 70):.1f}" y="14" '
            f'class="slo-lbl">SLO {_fmt(slo_seconds * 1000)}ms</text>'
        )
    parts.append(
        f'<text x="2" y="{height - 4}" class="lbl">0</text>'
        f'<text x="{width - 2}" y="{height - 4}" text-anchor="end" '
        f'class="lbl">le {_esc(str(counts[-1][0]))}s</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


# -- page --------------------------------------------------------------------

_CSS = """
:root { color-scheme: light dark; }
body.viz-root {
  margin: 0; padding: 24px; font: 13px/1.45 system-ui, sans-serif;
  background: var(--surface-1); color: var(--text-primary);
  --surface-1: #fcfcfb; --text-primary: #0b0b0b;
  --text-secondary: #52514e; --grid: #d8d7d2;
  --c0: #2a78d6; --c1: #eb6834; --c2: #1baf7a; --cx: #52514e;
  --good: #008300; --bad: #e34948;
}
@media (prefers-color-scheme: dark) {
  body.viz-root {
    --surface-1: #1a1a19; --text-primary: #ffffff;
    --text-secondary: #c3c2b7; --grid: #3a3a38;
    --c0: #3987e5; --c1: #d95926; --c2: #199e70; --cx: #c3c2b7;
    --good: #00a800; --bad: #e66767;
  }
}
h1 { font-size: 18px; margin: 0 0 4px; }
h2 { font-size: 14px; margin: 26px 0 8px; }
h3 { font-size: 12px; margin: 12px 0 4px;
     color: var(--text-secondary); font-weight: 600; }
.sub { color: var(--text-secondary); margin: 0 0 18px; }
.chart { display: block; max-width: 760px; }
.chart .lbl, .chart .val { font: 11px system-ui, sans-serif;
  fill: var(--text-secondary); }
.chart .val { fill: var(--text-primary); }
.chart rect.s0 { fill: var(--c0); }
.chart rect.s1 { fill: var(--c1); }
.chart rect.s2 { fill: var(--c2); }
.chart rect.sx { fill: var(--cx); }
.chart .axis { stroke: var(--grid); stroke-width: 1; }
.chart .slo { stroke: var(--bad); stroke-width: 2;
  stroke-dasharray: 4 3; }
.chart .slo-lbl { font: 10px system-ui, sans-serif;
  fill: var(--text-primary); }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; }
.tile { border: 1px solid var(--grid); border-radius: 6px;
  padding: 10px 16px; min-width: 120px; }
.tile .n { font-size: 22px; font-weight: 700; }
.tile .t { color: var(--text-secondary); font-size: 11px; }
.tile.ok .n::before { content: "\\2713 "; color: var(--good); }
.tile.down .n::before { content: "\\2717 "; color: var(--bad); }
.legend { display: flex; gap: 14px; margin: 4px 0 6px;
  color: var(--text-secondary); font-size: 11px; }
.chip { display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 4px; vertical-align: middle; }
.hists { display: flex; gap: 18px; flex-wrap: wrap; }
.hist-card { width: 300px; }
table { border-collapse: collapse; margin-top: 8px; }
th, td { border: 1px solid var(--grid); padding: 4px 10px;
  text-align: right; font-variant-numeric: tabular-nums; }
th:first-child, td:first-child { text-align: left; }
th { color: var(--text-secondary); font-weight: 600; }
"""


def _slot(index: int) -> int:
    """Series slot for tenant ``index`` (overflow past 3 shares one)."""
    return index if index < 3 else 3


def render_dashboard(
    scrape: str,
    title: str = "repro-serve dashboard",
    slo_seconds: float = DEFAULT_SLO_SECONDS,
) -> str:
    """One scrape -> one self-contained HTML dashboard page."""
    data = dashboard_data(scrape, slo_seconds=slo_seconds)
    tenants = sorted(data["tenants"])
    workers = data["workers"]
    alive, dead = workers["alive"], workers["dead"]
    tiles = [
        f'<div class="tile {"ok" if dead == 0 else "down"}">'
        f'<div class="n">{_fmt(alive)}</div>'
        f'<div class="t">workers alive</div></div>',
        f'<div class="tile {"down" if dead else "ok"}">'
        f'<div class="n">{_fmt(dead)}</div>'
        f'<div class="t">workers dead</div></div>',
        f'<div class="tile"><div class="n">'
        f'{_fmt(data["server"]["requests_total"])}</div>'
        f'<div class="t">requests</div></div>',
        f'<div class="tile"><div class="n">'
        f'{_fmt(data["server"]["flight_dumps_total"])}</div>'
        f'<div class="t">flight dumps</div></div>',
    ]

    cycles_rows = [
        (
            tenant,
            data["tenants"][tenant]["device_cycles"],
            _slot(i),
        )
        for i, tenant in enumerate(tenants)
    ]
    reject_rows = [
        (
            tenant,
            data["tenants"][tenant]["rejected"],
            data["tenants"][tenant]["shed"],
        )
        for tenant in tenants
    ]

    sections: List[str] = []
    sections.append("<h2>Worker pool</h2>")
    sections.append(f'<div class="tiles">{"".join(tiles)}</div>')
    sections.append(
        "<h2>Device-cycle attribution (per tenant)</h2>"
        + _hbar_chart(cycles_rows, "cycles")
    )
    sections.append(
        "<h2>Rejections (per tenant)</h2>"
        '<div class="legend">'
        '<span><span class="chip" style="background:var(--c0)">'
        "</span>rejected (quota/typed)</span>"
        '<span><span class="chip" style="background:var(--c1)">'
        "</span>shed (overload)</span></div>"
        + _grouped_bars(reject_rows, ("rejected", "shed"))
    )

    for tenant in tenants:
        latency = data["tenants"][tenant]["latency"]
        if not latency:
            continue
        cards = []
        for op in sorted(latency):
            entry = latency[op]
            within = entry["within_slo"]
            within_text = (
                f"{within * 100:.1f}% within SLO"
                if within is not None
                else "no observations"
            )
            cards.append(
                f'<div class="hist-card"><h3>{_esc(op)} '
                f"&middot; {_fmt(entry['count'])} reqs &middot; "
                f"{_esc(within_text)}</h3>"
                + _histogram_svg(entry["buckets"], slo_seconds)
                + "</div>"
            )
        sections.append(
            f"<h2>Op latency &mdash; tenant "
            f"<code>{_esc(tenant)}</code></h2>"
            f'<div class="hists">{"".join(cards)}</div>'
        )

    rows = []
    for i, tenant in enumerate(tenants):
        info = data["tenants"][tenant]
        chip_slot = str(i) if i < 3 else "x"
        chip = (
            f'<span class="chip" '
            f'style="background:var(--c{chip_slot})"></span>'
        )
        rows.append(
            f"<tr><td>{chip}{_esc(tenant)}</td>"
            f"<td>{_fmt(info['requests'])}</td>"
            f"<td>{_fmt(info['rejected'])}</td>"
            f"<td>{_fmt(info['shed'])}</td>"
            f"<td>{_fmt(info['sessions_live'])}</td>"
            f"<td>{_fmt(info['device_cycles'])}</td></tr>"
        )
    sections.append(
        "<h2>All figures (table view)</h2>"
        "<table><thead><tr><th>tenant</th><th>requests</th>"
        "<th>rejected</th><th>shed</th><th>sessions</th>"
        "<th>device cycles</th></tr></thead>"
        f'<tbody>{"".join(rows)}</tbody></table>'
    )

    payload = json.dumps(data, sort_keys=True).replace("</", "<\\/")
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        '<body class="viz-root">\n'
        f"<h1>{_esc(title)}</h1>\n"
        f'<p class="sub">rendered from one /metrics scrape &middot; '
        f"SLO {_fmt(slo_seconds * 1000)}ms &middot; schema "
        f"{DASHBOARD_SCHEMA}</p>\n"
        + "\n".join(sections)
        + '\n<script type="application/json" id="dashboard-data">'
        f"{payload}</script>\n"
        "</body></html>\n"
    )


def extract_data_block(page: str) -> dict:
    """Parse the JSON dataset back out of a rendered dashboard page
    (what the gate compares against its own scrape parse)."""
    match = re.search(
        r'<script type="application/json" id="dashboard-data">'
        r"(.*?)</script>",
        page,
        re.DOTALL,
    )
    if match is None:
        raise ValueError("page has no dashboard-data block")
    return json.loads(match.group(1).replace("<\\/", "</"))
