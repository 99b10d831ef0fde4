"""The ``gateway-store`` workload: a store round-trip over HTTP.

A ``repro-sim gateway`` server runs in its own process with a store that
starts empty; one single-threaded client with one connection drives it in
a closed loop, as ``scripts/gateway_client.py`` and the thin CLI do.  One
op is a pair of jobs: a cold ``simulate`` of 2000 requests on
``llama2-7b`` at 0.1 req/s with a seed distinct per op, then the identical
request again, served from the store.  Each job is submitted, polled at a
fixed interval and its result fetched and decoded.
"""

from __future__ import annotations

import http.client
import json
import math
import pathlib
import select
import signal
import subprocess
import sys
import time

from benchloop import (
    MAX_TRACED_OPS,
    RSS_AT_OP,
    SETUP_REPEATS,
    closed_loop,
    end_to_end,
    expect,
    overhead_frac,
)
from benchstats import derive_seed, median, proc_status_mb
from benchtrace import (
    ID,
    PARENT,
    Tracer,
    assign_ops,
    layer_metrics,
    print_shares,
    read_spans,
    unattributed_frac,
    write_spans,
)

HERE = pathlib.Path(__file__).resolve().parent
GATEWAY_LLM = "llama2-7b"
GATEWAY_RATE = 0.1
GATEWAY_REQUESTS = 2000
#: Seconds between status polls of a submitted job.
POLL_INTERVAL_S = 0.02
TERMINAL = ("done", "failed", "cancelled")
#: The op whose HTTP bodies are compared with in-process output is drawn
#: from the seed among this many first ops.
SAMPLE_AMONG = 3
#: Server-side span ids are shifted by this to stay apart from the client's.
SERVER_ID_OFFSET = 1 << 40


def poll(fetch, interval: float, *, timeout: float = 120.0,
         clock=time.perf_counter, sleep=time.sleep):
    """Call ``fetch()`` at ``start + k * interval`` (k = 1, 2, ...) until it
    returns something other than ``None``; returns ``(value, polls)``.

    A poll that overruns its slot skips the slots it missed, so polls stay
    on the fixed grid and never bunch up.
    """
    start = clock()
    slot = 1
    polls = 0
    while True:
        wait = start + slot * interval - clock()
        if wait > 0:
            sleep(wait)
        polls += 1
        value = fetch()
        if value is not None:
            return value, polls
        elapsed = clock() - start
        if elapsed > timeout:
            raise TimeoutError(f"no result after {polls} polls")
        slot = max(slot + 1, math.floor(elapsed / interval) + 1)


class Gateway:
    """One gateway server process, launched and connected to.

    ``setup_s`` is the time from spawning the process until the server
    answered a health check.
    """

    def __init__(self, root: pathlib.Path, work: pathlib.Path, name: str,
                 trace_out: pathlib.Path | None = None) -> None:
        self.store = work / f"{name}.store.jsonl"
        self.store.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "gateway_server.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", "--port", "0", "--store", str(self.store)]
        start = time.perf_counter()
        self._log = open(work / f"{name}.log", "wb")  # closed in close()
        self.proc = subprocess.Popen(command, cwd=root,
                                     stdout=subprocess.PIPE, stderr=self._log)
        self.conn = None
        try:
            host, port = self._listening_address(timeout=60.0)
            self.conn = http.client.HTTPConnection(host, port, timeout=120)
            status, _ = self.request("GET", "/v1/health")
            expect(status == 200, f"health check answered {status}")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _listening_address(self, timeout: float) -> tuple[str, int]:
        prefix = b"gateway listening on http://"
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith(prefix):
                    address = line[len(prefix):].split(b";")[0].decode()
                    host, port = address.rsplit(":", 1)
                    return host, int(port)
        raise RuntimeError("gateway did not start; see its log")

    def request(self, method: str, path: str, body: bytes | None = None):
        """``(status, body bytes)`` of one request on the connection."""
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def rss_mb(self) -> float:
        """Resident set size of the server process now."""
        return proc_status_mb(self.proc.pid, "VmRSS")

    def close(self) -> None:
        """Stop the server (SIGINT, as a terminal would) and reap it."""
        if self.conn is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        self.store.unlink(missing_ok=True)

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def make_body(api, seed: int, index: int) -> bytes:
    """The request of op ``index`` (warm-ups use negative indices)."""
    request = api.SimulateRequest(
        llm=GATEWAY_LLM, rate=GATEWAY_RATE, requests=GATEWAY_REQUESTS,
        seed=derive_seed(seed, f"gateway-op-{index}"))
    return json.dumps(request.to_dict()).encode()


def run_job(request, decode, body: bytes) -> dict:
    """Submit, poll and fetch one job; the client-side record of it."""
    start = time.perf_counter()
    status, data = request("POST", "/v1/simulate", body)
    expect(status == 202, f"submit answered {status}: {data[:200]!r}")
    job_id = json.loads(data)["job_id"]

    def finished():
        _, data = request("GET", f"/v1/jobs/{job_id}")
        payload = json.loads(data)
        return payload if payload["status"] in TERMINAL else None

    final, polls = poll(finished, POLL_INTERVAL_S)
    status, result = request("GET", f"/v1/jobs/{job_id}/result")
    expect(status == 200, f"result answered {status}: {result[:200]!r}")
    envelope = decode(result)
    return {"client_s": time.perf_counter() - start, "status": final,
            "polls": polls, "body": result, "envelope": envelope}


def check_pair(pair) -> None:
    """Cold simulates once; warm is a store hit with the identical report."""
    cold, warm = pair
    expect(cold["status"]["status"] == "done"
           and cold["status"]["new_simulations"] == 1
           and cold["envelope"]["new_simulations"] == 1,
           "cold job did not simulate exactly once")
    expect(warm["status"]["status"] == "done"
           and warm["status"]["new_simulations"] == 0
           and warm["envelope"]["served_from_store"],
           "warm job was not served from the store")
    expect(warm["envelope"]["report"] == cold["envelope"]["report"],
           "warm report differs from the cold one")
    completed = cold["envelope"]["report"]["completed"]
    expect(0 < completed <= GATEWAY_REQUESTS, "no request completed")


def check_against_api(api, kept, work: pathlib.Path) -> None:
    """The HTTP bodies of the sampled op equal in-process ``repro.api``
    output for the same request against a fresh store."""
    from repro.sweep.store import ResultStore

    expect("sample" in kept, "the sampled op failed")
    body, pair = kept["sample"]
    path = work / "reference.store.jsonl"
    path.unlink(missing_ok=True)
    store = ResultStore(path)
    request = api.request_from_dict(json.loads(body))
    for job in pair:
        local = json.dumps(api.simulate(request, store=store).to_dict())
        expect(local.encode() == job["body"],
               "HTTP envelope differs from in-process repro.api output")
    path.unlink()


def _client(gateway: Gateway, tracer: Tracer | None = None):
    """The client's ``(request, decode)`` pair for one server."""
    if tracer is None:
        return gateway.request, json.loads
    return (tracer.wrap("gateway.http", gateway.request),
            tracer.wrap("api.decode", json.loads))


def _pair(client, body: bytes):
    request, decode = client
    return run_job(request, decode, body), run_job(request, decode, body)


def _loop(api, seed: int, seconds: float, clients, *, sample_index: int,
          min_ops: int, tracer: Tracer | None = None, max_ops=None,
          after_op=None):
    """Warm every server up, then run the closed loop, op ``i`` going to
    ``clients[i % len(clients)]``; returns the loop and what the checks
    kept: per-server job records and the sampled op."""
    for client in clients:
        check_pair(_pair(client, make_body(api, seed, -1)))
    kept = {"pairs": [[] for _ in clients]}

    def prepare(index):
        return index, make_body(api, seed, index)

    def op(data):
        index, body = data
        if tracer is not None:
            tracer.op = index // len(clients)
        return index, body, _pair(clients[index % len(clients)], body)

    def check(output):
        index, body, pair = output
        check_pair(pair)
        if index == sample_index:
            kept["sample"] = (body, pair)
        # Bodies are large; keep only the timings and statuses.
        kept["pairs"][index % len(clients)].append(
            [{"client_s": job["client_s"], "status": job["status"],
              "polls": job["polls"], "bytes": len(job["body"])}
             for job in pair])
        return True

    loop = closed_loop(op, check, seconds, prepare=prepare,
                       min_ops=min_ops, max_ops=max_ops,
                       after_op=after_op)
    return loop, kept


def _job_metrics(pairs) -> dict[str, float]:
    """The gateway layer metrics from the client's job records, per op."""
    ops = len(pairs)
    run = queue = client = 0.0
    for pair in pairs:
        for job in pair:
            status = job["status"]
            run += status["finished_s"] - status["started_s"]
            queue += status["started_s"] - status["submitted_s"]
            client += job["client_s"]
    return {
        "gateway.queue_wait_s": queue / ops,
        "gateway.run_s": run / ops,
        "gateway.http_s": (client - run) / ops,
        "gateway.polls_per_job": sum(job["polls"] for pair in pairs
                                     for job in pair) / (2 * ops),
        "gateway.result_bytes": sum(job["bytes"] for pair in pairs
                                    for job in pair) / ops,
        "gateway.cold_job_s": median(pair[0]["client_s"] for pair in pairs),
        "gateway.warm_job_s": median(pair[1]["client_s"] for pair in pairs),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: pathlib.Path, work: pathlib.Path) -> dict:
    import repro.api as api

    sample = derive_seed(seed, "sampled-op") % SAMPLE_AMONG
    if not trace:
        setups = []
        for launch in range(SETUP_REPEATS):
            gateway = Gateway(root, work, "gateway")
            setups.append(gateway.setup_s)
            if launch + 1 < SETUP_REPEATS:
                gateway.close()
        # The server's resident set is read between ops, while it is idle.
        rss = []
        with gateway:
            loop, kept = _loop(api, seed, seconds, [_client(gateway)],
                               sample_index=sample, min_ops=RSS_AT_OP,
                               after_op=lambda _: rss.append(gateway.rss_mb()))
        check_against_api(api, kept, work)
        print(f"server RSS after each op: min {min(rss):.1f} MiB, "
              f"max {max(rss):.1f} MiB over {len(rss)} ops")
        return {"attempted": loop.attempted, "failed": loop.failed,
                "metrics": end_to_end(setups, loop, rss[RSS_AT_OP - 1])}

    # Even ops go to an untraced server, odd ops to a traced one.
    server_spans = work / "gateway-server.spans.json"
    server_spans.unlink(missing_ok=True)
    tracer = Tracer()
    with Gateway(root, work, "gateway") as plain, \
            Gateway(root, work, "gateway-traced",
                    trace_out=server_spans) as traced:
        loop, kept = _loop(api, seed, seconds,
                           [_client(plain), _client(traced, tracer)],
                           sample_index=2 * sample + 1,
                           min_ops=2 * SAMPLE_AMONG, tracer=tracer,
                           max_ops=2 * MAX_TRACED_OPS)
    check_against_api(api, kept, work)

    def shifted(span):
        parent = span[PARENT] + SERVER_ID_OFFSET if span[PARENT] else 0
        return (span[ID] + SERVER_ID_OFFSET,) + span[ID + 1:PARENT] + (
            parent,) + span[PARENT + 1:]

    windows = loop.windows[1::2]
    spans = assign_ops(tracer.spans + [shifted(span) for span
                                       in read_spans(server_spans)], windows)
    write_spans(work / f"{workload}.spans.json", spans)
    print_shares(spans, windows)
    metrics = layer_metrics(spans, len(windows))
    metrics.update(_job_metrics(kept["pairs"][1]))
    metrics["bench.trace_overhead_frac"] = overhead_frac(loop)
    metrics["bench.unattributed_frac"] = unattributed_frac(spans, windows)
    return {"attempted": loop.attempted, "failed": loop.failed,
            "layers": metrics}
