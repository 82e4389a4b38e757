"""Dashboard unit tests: scrape parsing, dataset, HTML round-trip.

The dashboard's contract is that its page is a pure function of one
Prometheus scrape: ``dashboard_data`` extracts the dataset,
``render_dashboard`` embeds it, ``extract_data_block`` reads it back
bit-identically (what ``tools/serve_gate.py`` enforces against a
live server).
"""

import pytest

from repro.obs.dashboard import (
    DASHBOARD_SCHEMA,
    dashboard_data,
    extract_data_block,
    parse_prometheus,
    render_dashboard,
)

#: A hand-written two-tenant scrape in the exact shapes the server
#: emits (labeled tenant series + unlabeled server series).
SCRAPE = """\
# HELP serve_tenant_requests_total requests handled for this tenant
# TYPE serve_tenant_requests_total counter
serve_tenant_requests_total{tenant="acme"} 6
serve_tenant_requests_total{tenant="bravo"} 4
serve_tenant_rejected_total{tenant="acme"} 1
serve_tenant_rejected_total{tenant="bravo"} 0
serve_tenant_shed_total{tenant="acme"} 2
serve_tenant_shed_total{tenant="bravo"} 0
serve_tenant_device_cycles_total{tenant="acme"} 1234.5
serve_tenant_device_cycles_total{tenant="bravo"} 600.25
serve_tenant_sessions_live{tenant="acme"} 1
serve_tenant_sessions_live{tenant="bravo"} 2
# TYPE serve_tenant_op_latency_seconds_submit histogram
serve_tenant_op_latency_seconds_submit_bucket{tenant="acme",le="0.005"} 2
serve_tenant_op_latency_seconds_submit_bucket{tenant="acme",le="0.025"} 3
serve_tenant_op_latency_seconds_submit_bucket{tenant="acme",le="+Inf"} 4
serve_tenant_op_latency_seconds_submit_sum{tenant="acme"} 0.08
serve_tenant_op_latency_seconds_submit_count{tenant="acme"} 4
serve_tenant_op_latency_seconds_submit_bucket{tenant="bravo",le="0.005"} 1
serve_tenant_op_latency_seconds_submit_bucket{tenant="bravo",le="0.025"} 1
serve_tenant_op_latency_seconds_submit_bucket{tenant="bravo",le="+Inf"} 1
serve_tenant_op_latency_seconds_submit_sum{tenant="bravo"} 0.001
serve_tenant_op_latency_seconds_submit_count{tenant="bravo"} 1
serve_requests_total 10
serve_rejected_total 1
serve_flight_dumps_total 2
serve_workers_alive 2
serve_workers_dead 1
"""


class TestParsePrometheus:
    def test_samples_grouped_by_name(self):
        samples = parse_prometheus(SCRAPE)
        assert samples["serve_tenant_requests_total"] == [
            ({"tenant": "acme"}, 6.0),
            ({"tenant": "bravo"}, 4.0),
        ]
        assert samples["serve_workers_dead"] == [({}, 1.0)]

    def test_multi_label_samples(self):
        samples = parse_prometheus(
            'lat_bucket{tenant="a",le="+Inf"} 3\n'
        )
        assert samples["lat_bucket"] == [
            ({"tenant": "a", "le": "+Inf"}, 3.0)
        ]

    def test_escaped_label_values_unescaped(self):
        samples = parse_prometheus(
            'm{tenant="a\\"b\\\\c\\nd"} 1\n'
        )
        ((labels, _value),) = samples["m"]
        assert labels["tenant"] == 'a"b\\c\nd'

    def test_comments_and_blanks_skipped(self):
        assert parse_prometheus("# HELP x y\n\n# TYPE x counter\n") == {}

    def test_garbage_line_raises(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_prometheus("!!! not a sample\n")

    def test_non_numeric_value_raises(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_prometheus("m{} up\n")


class TestDashboardData:
    def test_tenants_and_ops_discovered(self):
        data = dashboard_data(SCRAPE)
        assert data["schema"] == DASHBOARD_SCHEMA
        assert sorted(data["tenants"]) == ["acme", "bravo"]
        assert data["ops"] == ["submit"]

    def test_tenant_figures(self):
        acme = dashboard_data(SCRAPE)["tenants"]["acme"]
        assert acme["requests"] == 6.0
        assert acme["rejected"] == 1.0
        assert acme["shed"] == 2.0
        assert acme["device_cycles"] == 1234.5
        assert acme["sessions_live"] == 1.0

    def test_latency_buckets_keep_scrape_spelling(self):
        submit = dashboard_data(SCRAPE)["tenants"]["acme"]["latency"][
            "submit"
        ]
        assert submit["count"] == 4.0
        assert submit["sum"] == 0.08
        assert submit["buckets"] == [
            ["0.005", 2.0],
            ["0.025", 3.0],
            ["+Inf", 4.0],
        ]

    def test_within_slo_reads_the_exact_bucket(self):
        data = dashboard_data(SCRAPE, slo_seconds=0.025)
        acme = data["tenants"]["acme"]["latency"]["submit"]
        bravo = data["tenants"]["bravo"]["latency"]["submit"]
        assert acme["within_slo"] == 3.0 / 4.0
        assert bravo["within_slo"] == 1.0

    def test_server_and_worker_sections(self):
        data = dashboard_data(SCRAPE)
        assert data["workers"] == {"alive": 2.0, "dead": 1.0}
        assert data["server"] == {
            "requests_total": 10.0,
            "rejected_total": 1.0,
            "flight_dumps_total": 2.0,
        }

    def test_empty_scrape_yields_empty_dataset(self):
        data = dashboard_data("")
        assert data["tenants"] == {}
        assert data["ops"] == []


class TestRenderDashboard:
    def test_page_is_self_contained_html(self):
        page = render_dashboard(SCRAPE, title="unit dashboard")
        assert page.lstrip().lower().startswith("<!doctype html")
        assert "unit dashboard" in page
        assert "<svg" in page and "</html>" in page
        assert "<script src=" not in page
        assert "<link rel=" not in page

    def test_embedded_dataset_roundtrips_exactly(self):
        page = render_dashboard(SCRAPE)
        assert extract_data_block(page) == dashboard_data(SCRAPE)

    def test_custom_slo_threads_through(self):
        page = render_dashboard(SCRAPE, slo_seconds=0.005)
        assert extract_data_block(page)["slo_seconds"] == 0.005

    def test_empty_scrape_still_renders(self):
        page = render_dashboard("")
        assert page.lstrip().lower().startswith("<!doctype html")
        assert extract_data_block(page)["tenants"] == {}

    def test_corrupt_scrape_raises(self):
        with pytest.raises(ValueError):
            render_dashboard("!!! torn scrape")
