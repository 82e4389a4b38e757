"""Golden-finding tests: one fixture snippet per lint rule.

Each snippet is written to a path that matches the rule's scope (the
pool/ordering/ledger rules are path-scoped) and linted in isolation;
the expected findings are asserted by rule id and message fragment.
"""

import textwrap

from repro.analysis.lintcore import lint_paths, load_module
from repro.analysis.rules import ALL_RULES, get_rules


def _lint_snippet(tmp_path, relpath, code, rules=None):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code))
    return lint_paths([target], get_rules(rules) if rules else list(ALL_RULES))


class TestHotPathLoop:
    def test_loop_in_marked_file_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/hot.py",
            """
            # repro-lint: hot-path
            def drain(buffer):
                for u in buffer:
                    buffer.remove(u)
            """,
        )
        assert [f.rule for f in findings] == ["hot-path-loop"]
        assert "'u'" in findings[0].message

    def test_unmarked_file_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/cold.py",
            """
            def drain(buffer):
                for u in buffer:
                    pass
            """,
        )
        assert findings == []

    def test_warp_body_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/hot.py",
            """
            # repro-lint: hot-path
            def kernel(items):
                def body(warp, item):
                    while item:
                        item -= 1
                return body
            """,
        )
        assert findings == []

    def test_allow_pragma_with_reason(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/hot.py",
            """
            # repro-lint: hot-path
            def drain(rounds):
                # repro-lint: allow[hot-path-loop] bounded round loop
                while rounds:
                    rounds -= 1
            """,
        )
        assert findings == []

    def test_allow_pragma_without_reason_is_reported(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/hot.py",
            """
            # repro-lint: hot-path
            def drain(rounds):
                # repro-lint: allow[hot-path-loop]
                while rounds:
                    rounds -= 1
            """,
        )
        rules = sorted(f.rule for f in findings)
        assert rules == ["bad-pragma", "hot-path-loop"]


class TestUnseededRng:
    def test_global_numpy_rng_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/eval/x.py",
            """
            import numpy as np
            def jitter():
                return np.random.rand(3)
            """,
        )
        assert [f.rule for f in findings] == ["unseeded-rng"]
        assert "np.random.rand" in findings[0].message

    def test_seedless_default_rng_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/eval/x.py",
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
        )
        assert [f.rule for f in findings] == ["unseeded-rng"]

    def test_seeded_default_rng_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/eval/x.py",
            """
            import numpy as np
            def make(seed):
                return np.random.default_rng(seed), np.random.default_rng(seed=3)
            """,
        )
        assert findings == []

    def test_stdlib_global_rng_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/eval/x.py",
            """
            import random
            def pick(xs):
                return random.choice(xs)
            """,
        )
        assert [f.rule for f in findings] == ["unseeded-rng"]

    def test_seeded_random_instance_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/eval/x.py",
            """
            import random
            def pick(xs, seed):
                return random.Random(seed).choice(xs)
            """,
        )
        assert findings == []

    def test_seeding_module_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/utils/seeding.py",
            """
            import numpy as np
            def fresh():
                return np.random.default_rng()
            """,
        )
        assert findings == []


class TestSetIterOrder:
    def test_for_over_set_call_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/x.py",
            """
            def visit(vertices):
                for v in set(vertices):
                    print(v)
            """,
        )
        assert [f.rule for f in findings] == ["set-iter-order"]
        assert "sorted()" in findings[0].message

    def test_list_of_set_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/partition/x.py",
            """
            def order(vertices):
                return list({v for v in vertices})
            """,
        )
        assert [f.rule for f in findings] == ["set-iter-order"]

    def test_sorted_set_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/x.py",
            """
            def visit(vertices):
                for v in sorted(set(vertices)):
                    print(v)
                return sorted({1, 2})
            """,
        )
        assert findings == []

    def test_rule_scoped_to_partition_and_core(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/eval/x.py",
            """
            def visit(vertices):
                for v in set(vertices):
                    print(v)
            """,
        )
        assert findings == []


class TestUnchargedKernel:
    def test_charge_outside_scope_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/x.py",
            """
            def kernel(ctx, n):
                ctx.charge_wavefront(n, 5)
            """,
        )
        assert [f.rule for f in findings] == ["uncharged-kernel"]
        assert "never be priced" in findings[0].message

    def test_charge_inside_scope_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/x.py",
            """
            def kernel(ctx, n):
                with ctx.ledger.kernel("k"):
                    ctx.charge_wavefront(n, 5)
                    ctx.ledger.charge_transactions(n)
            """,
        )
        assert findings == []

    def test_rule_scoped_to_kernel_layers(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/gpusim/x.py",
            """
            def helper(ledger, n):
                ledger.charge_instructions(n)
            """,
        )
        assert findings == []


class TestUntrackedPoolWrite:
    def test_slot_write_without_undo_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/x.py",
            """
            def clobber(graph, idx, value):
                graph.bucket_list[idx] = value
            """,
        )
        assert [f.rule for f in findings] == ["untracked-pool-write"]
        assert ".bucket_list" in findings[0].message

    def test_slot_write_with_undo_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/x.py",
            """
            def mutate(graph, idx, value):
                graph._undo_slots(idx)
                graph.bucket_list[idx] = value
                graph.slot_wgt[idx] = value
            """,
        )
        assert findings == []

    def test_status_write_requires_status_undo(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/x.py",
            """
            def toggle(graph, u):
                graph._undo_slots(u)  # wrong recorder for vertex_status
                graph.vertex_status[u] = 1
            """,
        )
        assert [f.rule for f in findings] == ["untracked-pool-write"]

    def test_begin_undo_covers_both_families(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/x.py",
            """
            def txn(graph, u, idx):
                graph.begin_undo()
                graph.vertex_status[u] = 1
                graph.bucket_list[idx] = u
            """,
        )
        assert findings == []

    def test_pool_implementation_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/graph/bucketlist.py",
            """
            def from_csr(graph, idx, value):
                graph.bucket_list[idx] = value
            """,
        )
        assert findings == []


class TestBlindExcept:
    def test_bare_except_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/eval/x.py",
            """
            def risky():
                try:
                    return 1
                except:
                    return 0
            """,
        )
        assert [f.rule for f in findings] == ["blind-except"]
        assert "bare except" in findings[0].message

    def test_silent_broad_except_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/eval/x.py",
            """
            def risky():
                try:
                    return 1
                except Exception:
                    pass
            """,
        )
        assert [f.rule for f in findings] == ["blind-except"]
        assert "swallows" in findings[0].message

    def test_handled_broad_except_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/eval/x.py",
            """
            def risky(log):
                try:
                    return 1
                except Exception as exc:
                    log.warning("failed: %s", exc)
                    raise
            """,
        )
        assert findings == []

    def test_narrow_silent_except_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/eval/x.py",
            """
            def probe(path):
                try:
                    return path.read_text()
                except FileNotFoundError:
                    pass
            """,
        )
        assert findings == []


class TestFramework:
    def test_syntax_error_becomes_finding(self, tmp_path):
        findings = _lint_snippet(tmp_path, "src/x.py", "def broken(:\n")
        assert [f.rule for f in findings] == ["syntax-error"]

    def test_hot_path_marker_detected(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text('"""Doc."""\n# repro-lint: hot-path\nx = 1\n')
        assert load_module(target).hot_path

    def test_real_findings_carry_module_qualified_symbols(self, tmp_path):
        code = """
            def risky():
                try:
                    pass
                except Exception:
                    pass
            """
        first = _lint_snippet(
            tmp_path, "src/repro/core/before.py", code, ["blind-except"]
        )
        second = _lint_snippet(
            tmp_path, "src/repro/core/after.py", code, ["blind-except"]
        )
        assert first and second
        assert first[0].symbol == "repro.core.before.risky"
        assert second[0].symbol == "repro.core.after.risky"

    def test_rule_ids_unique_and_kebab(self):
        ids = [rule.id for rule in ALL_RULES]
        assert len(ids) == len(set(ids)) == 12
        assert all(i == i.lower() and " " not in i for i in ids)


class TestSpanLiteral:
    def test_fstring_span_name_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/phase.py",
            """
            from repro.obs import span

            def run(i):
                with span(f"batch-{i}"):
                    pass
            """,
            rules=["span-literal"],
        )
        assert [f.rule for f in findings] == ["span-literal"]
        assert "literal" in findings[0].message

    def test_variable_timed_name_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/eval/bench.py",
            """
            from repro.utils.timing import timed

            def run(name):
                with timed(name):
                    pass
            """,
            rules=["span-literal"],
        )
        assert [f.rule for f in findings] == ["span-literal"]

    def test_attribute_call_and_keyword_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/stream/x.py",
            """
            from repro import obs

            def run(label):
                with obs.span(name=label):
                    pass
            """,
            rules=["span-literal"],
        )
        assert [f.rule for f in findings] == ["span-literal"]

    def test_literal_names_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/phase.py",
            """
            from repro.obs import span
            from repro.utils.timing import timed

            def run(i):
                with span("apply.batch", batch=i):
                    with timed("inner"):
                        pass
            """,
            rules=["span-literal"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/phase.py",
            """
            from repro.obs import span

            def run(name):
                # repro-lint: allow[span-literal] generated bench harness
                with span(name):
                    pass
            """,
            rules=["span-literal"],
        )
        assert findings == []


class TestUnsortedDictExport:
    def test_dict_copy_in_as_dict_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/stream/t.py",
            """
            class Telemetry:
                def __init__(self):
                    self.flushes_by_reason = {}

                def as_dict(self):
                    return {
                        "flushes_by_reason": dict(self.flushes_by_reason),
                    }
            """,
            rules=["unsorted-dict-export"],
        )
        assert [f.rule for f in findings] == ["unsorted-dict-export"]
        assert "insertion order" in findings[0].message

    def test_dict_copy_in_as_meta_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/stream/q.py",
            """
            class Quarantine:
                def as_meta(self, now):
                    return dict(self.entries)
            """,
            rules=["unsorted-dict-export"],
        )
        assert [f.rule for f in findings] == ["unsorted-dict-export"]

    def test_sorted_comprehension_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/stream/t.py",
            """
            class Telemetry:
                def __init__(self):
                    self.flushes_by_reason = {}

                def as_dict(self):
                    return {
                        "flushes_by_reason": {
                            k: self.flushes_by_reason[k]
                            for k in sorted(self.flushes_by_reason)
                        },
                    }
            """,
            rules=["unsorted-dict-export"],
        )
        assert findings == []

    def test_dict_copy_outside_export_methods_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/graph/g.py",
            """
            class HostGraph:
                def copy(self):
                    out = HostGraph()
                    out.active = dict(self.active)
                    return out

            def merge(meta):
                meta = dict(meta)
                return meta
            """,
            rules=["unsorted-dict-export"],
        )
        assert findings == []


class TestBlockingCallInAsync:
    def test_time_sleep_in_async_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/h.py",
            """
            import time

            async def handler(request):
                time.sleep(0.1)
                return request
            """,
            rules=["blocking-call-in-async"],
        )
        assert [f.rule for f in findings] == ["blocking-call-in-async"]
        assert "blocks" in findings[0].message
        assert "'handler'" in findings[0].message

    def test_bare_sleep_from_time_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/h.py",
            """
            from time import sleep

            async def handler(request):
                sleep(1)
            """,
            rules=["blocking-call-in-async"],
        )
        assert [f.rule for f in findings] == ["blocking-call-in-async"]
        assert "time.sleep" in findings[0].message

    def test_socket_method_on_sock_receiver_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/h.py",
            """
            import select
            import socket

            async def pump(sock, conn):
                data = sock.recv(4096)
                conn.sendall(data)
                select.select([sock], [], [])
                peer = socket.create_connection(("h", 1))
                return peer
            """,
            rules=["blocking-call-in-async"],
        )
        assert [f.rule for f in findings] == ["blocking-call-in-async"] * 4

    def test_sync_function_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/client.py",
            """
            import time

            def call(sock, payload):
                time.sleep(0.1)
                return sock.recv(4096)
            """,
            rules=["blocking-call-in-async"],
        )
        assert findings == []

    def test_sync_method_of_async_class_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/h.py",
            """
            import time

            class Server:
                async def serve(self, request):
                    return self.dispatch(request)

                def dispatch(self, request):
                    time.sleep(0.1)
                    return request
            """,
            rules=["blocking-call-in-async"],
        )
        assert [f.rule for f in findings] == ["blocking-call-in-async"]
        assert "'Server.dispatch'" in findings[0].message

    def test_method_of_class_without_async_method_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/h.py",
            """
            import time

            async def serve(request):
                return request

            class Harness:
                def stop(self):
                    time.sleep(0.1)
            """,
            rules=["blocking-call-in-async"],
        )
        assert findings == []

    def test_asyncio_sleep_and_generator_send_clean(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/h.py",
            """
            import asyncio

            async def handler(gen, writer):
                await asyncio.sleep(0.1)
                gen.send(None)
                writer.write(b"x")
            """,
            rules=["blocking-call-in-async"],
        )
        assert findings == []

    def test_sync_helper_nested_in_async_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/h.py",
            """
            import time

            async def handler(pool):
                def work():
                    time.sleep(0.1)
                return await pool.run(work)
            """,
            rules=["blocking-call-in-async"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/h.py",
            """
            import time

            async def handler(request):
                time.sleep(0.0)  # repro-lint: allow[blocking-call-in-async] bounded spin
            """,
            rules=["blocking-call-in-async"],
        )
        assert findings == []


class TestPoolScanOutsideSanitizer:
    def test_scan_in_product_code_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/stream/x.py",
            """
            from repro.partition.metrics import cut_size_bucketlist

            def telemetry(graph, state):
                return cut_size_bucketlist(graph, state.partition)
            """,
            rules=["pool-scan-outside-sanitizer"],
        )
        assert [f.rule for f in findings] == ["pool-scan-outside-sanitizer"]
        assert "cut_size_bucketlist" in findings[0].message

    def test_arc_matrix_attribute_call_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/core/x.py",
            """
            from repro.partition import metrics

            def rebuild(graph, partition, k):
                return metrics.arc_matrix_bucketlist(graph, partition, k)
            """,
            rules=["pool-scan-outside-sanitizer"],
        )
        assert [f.rule for f in findings] == ["pool-scan-outside-sanitizer"]

    def test_metrics_and_cutcheck_modules_exempt(self, tmp_path):
        for relpath in (
            "src/repro/partition/metrics.py",
            "src/repro/partition/cutcheck.py",
        ):
            findings = _lint_snippet(
                tmp_path,
                relpath,
                """
                def verify(graph, partition, k):
                    return arc_matrix_bucketlist(graph, partition, k)
                """,
                rules=["pool-scan-outside-sanitizer"],
            )
            assert findings == []

    def test_accumulator_cut_matrix_read_not_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/x.py",
            """
            def telemetry(state):
                # O(k^2) incremental read, not a pool scan.
                return state.cut_acc.cut_matrix(state.partition)
            """,
            rules=["pool-scan-outside-sanitizer"],
        )
        assert findings == []

    def test_csr_cut_matrix_scan_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/eval/x.py",
            """
            from repro.partition.metrics import cut_matrix

            def report(csr, partition, k):
                return cut_matrix(csr, partition, k)
            """,
            rules=["pool-scan-outside-sanitizer"],
        )
        assert [f.rule for f in findings] == ["pool-scan-outside-sanitizer"]

    def test_allow_pragma_with_reason(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/partition/x.py",
            """
            def bootstrap(graph, partition, k):
                # repro-lint: allow[pool-scan-outside-sanitizer] one-time bootstrap
                return arc_matrix_bucketlist(graph, partition, k)
            """,
            rules=["pool-scan-outside-sanitizer"],
        )
        assert findings == []


class TestUnjitteredRetryLoop:
    def test_no_sleep_retry_loop_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/anywhere/net.py",
            """
            def fetch(call, max_attempts):
                for attempt in range(max_attempts):
                    try:
                        return call()
                    except OSError:
                        continue
            """,
        )
        assert [f.rule for f in findings] == ["unjittered-retry-loop"]
        assert "never sleeps" in findings[0].message

    def test_constant_sleep_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/anywhere/net.py",
            """
            import time

            def fetch(call, retries):
                while retries:
                    try:
                        return call()
                    except OSError:
                        retries -= 1
                        time.sleep(0.1)
            """,
        )
        assert [f.rule for f in findings] == ["unjittered-retry-loop"]
        assert "constant delay" in findings[0].message

    def test_backoff_call_passes(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/anywhere/net.py",
            """
            def fetch(client, call, max_attempts):
                for attempt in range(max_attempts):
                    try:
                        return call()
                    except OSError:
                        client._backoff(attempt)
            """,
        )
        assert findings == []

    def test_computed_sleep_passes(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/anywhere/net.py",
            """
            import time

            def fetch(call, max_attempts, rng):
                for attempt in range(max_attempts):
                    try:
                        return call()
                    except OSError:
                        time.sleep(0.01 * 2**attempt * rng.random())
            """,
        )
        assert findings == []

    def test_attempt_loop_without_except_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/anywhere/gen.py",
            """
            def expand(max_attempts):
                try:
                    out = []
                    for attempt in range(max_attempts):
                        out.append(attempt)
                except MemoryError:
                    raise
                return out
            """,
        )
        assert findings == []

    def test_non_attempt_drain_loop_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/anywhere/drain.py",
            """
            def drain(pending, call):
                while pending:
                    try:
                        call(pending.pop())
                    except KeyError:
                        continue
            """,
        )
        assert findings == []

    def test_reraising_handler_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/anywhere/net.py",
            """
            def fetch(call, max_attempts):
                for attempt in range(max_attempts):
                    try:
                        return call()
                    except OSError:
                        raise
            """,
        )
        assert findings == []

    def test_allow_pragma_with_reason(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/anywhere/net.py",
            """
            def fetch(call, max_attempts):
                # repro-lint: allow[unjittered-retry-loop] simulated time
                for attempt in range(max_attempts):
                    try:
                        return call()
                    except OSError:
                        continue
            """,
        )
        assert findings == []


class TestUnlabeledTenantMetric:
    def test_global_registration_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/bad_server.py",
            """
            class PartitionServer:
                def __init__(self, metrics):
                    self.requests = metrics.counter(
                        "serve_tenant_requests_total", "doc"
                    )
            """,
            rules=["unlabeled-tenant-metric"],
        )
        assert [f.rule for f in findings] == ["unlabeled-tenant-metric"]
        assert "tenant-scoped registry" in findings[0].message

    def test_fstring_head_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/bad_hist.py",
            """
            def register(metrics, op):
                return metrics.histogram(
                    f"serve_tenant_op_latency_seconds_{op}", "doc"
                )
            """,
            rules=["unlabeled-tenant-metric"],
        )
        assert [f.rule for f in findings] == ["unlabeled-tenant-metric"]
        assert "module scope" in findings[0].message

    def test_tenant_scoped_registration_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/good_quotas.py",
            """
            class TenantAccount:
                def __init__(self, registry):
                    self.requests = registry.counter(
                        "serve_tenant_requests_total", "doc"
                    )
            """,
            rules=["unlabeled-tenant-metric"],
        )
        assert findings == []

    def test_other_metric_names_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/good_server.py",
            """
            class PartitionServer:
                def __init__(self, metrics):
                    self.requests = metrics.counter(
                        "serve_requests_total", "doc"
                    )
            """,
            rules=["unlabeled-tenant-metric"],
        )
        assert findings == []

    def test_unlabeled_export_of_account_registry_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/bad_scrape.py",
            """
            def scrape(accounts):
                parts = []
                for account in accounts.values():
                    parts.append(account.registry.to_prometheus())
                return "".join(parts)
            """,
            rules=["unlabeled-tenant-metric"],
        )
        assert [f.rule for f in findings] == ["unlabeled-tenant-metric"]
        assert "to_prometheus_labeled" in findings[0].message

    def test_global_registry_export_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/good_scrape.py",
            """
            def scrape(server):
                return server.metrics.to_prometheus()
            """,
            rules=["unlabeled-tenant-metric"],
        )
        assert findings == []

    def test_allow_pragma_with_reason(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            "src/repro/serve/shim.py",
            """
            def scrape(account):
                # repro-lint: allow[unlabeled-tenant-metric] migration shim
                return account.registry.to_prometheus()
            """,
            rules=["unlabeled-tenant-metric"],
        )
        assert findings == []
