#!/usr/bin/env python3
"""Socket-serving soak test against the real `cluster serve --listen` daemon.

Exercises the hardened serving tier end to end, from outside the process:

1. fits a small categorical model with the `cluster` binary;
2. starts `cluster serve --listen 127.0.0.1:0` and parses the bound address;
3. records a serial baseline: one client, every row, one reply per request;
4. runs four concurrent clients — three mixing predicts (two passes, so the
   hot-key cache sees repeats), `stats` probes, and one same-artifact
   `reload`; the fourth fires a burst and is killed mid-stream without
   reading its replies;
5. diffs every answer the surviving clients read against the serial
   baseline, byte for byte on the cluster id;
6. asks the daemon to shut down on a connection that first sends a
   predict, checks the shutdown is answered exactly once before the
   connection closes, and checks the drain report resolved every ticket it
   accepted.

Exits non-zero on any mismatch, daemon crash, or leaked ticket. Stdlib only.
"""

import argparse
import json
import re
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

GROUPS = 3
PER_GROUP = 12
N_ATTRS = 3


def build_rows():
    rows = []
    for g in range(GROUPS):
        for i in range(PER_GROUP):
            rows.append([f"g{g}-a{a}" for a in range(N_ATTRS - 1)] + [f"g{g}-n{i}"])
    return rows


def fit_model(bin_path, workdir, rows):
    csv = workdir / "soak.csv"
    header = ",".join(f"c{a}" for a in range(N_ATTRS))
    csv.write_text(header + "\n" + "\n".join(",".join(r) for r in rows) + "\n")
    model = workdir / "soak_model.json"
    subprocess.run(
        [bin_path, "fit", "--input", str(csv), "--k", str(GROUPS), "--bands", "8",
         "--rows", "2", "--seed", "13", "--model", str(model), "--quiet"],
        check=True,
    )
    return model


class Daemon:
    """The serve process plus a stderr pump that captures its log lines."""

    def __init__(self, bin_path, model):
        self.proc = subprocess.Popen(
            [bin_path, "serve", "--model", str(model), "--listen", "127.0.0.1:0",
             "--hot-keys", "256"],
            stderr=subprocess.PIPE, text=True,
        )
        self.stderr_lines = []
        self.addr_event = threading.Event()
        self.addr = None
        self.pump = threading.Thread(target=self._pump_stderr, daemon=True)
        self.pump.start()

    def _pump_stderr(self):
        for line in self.proc.stderr:
            line = line.rstrip("\n")
            self.stderr_lines.append(line)
            m = re.search(r"serve: listening on (\S+)", line)
            if m:
                host, port = m.group(1).rsplit(":", 1)
                self.addr = (host, int(port))
                self.addr_event.set()
        self.addr_event.set()  # EOF: unblock waiters even on startup failure

    def wait_for_addr(self, timeout=30):
        if not self.addr_event.wait(timeout) or self.addr is None:
            raise RuntimeError(f"daemon never announced an address; stderr: {self.stderr_lines}")
        return self.addr


class Client:
    def __init__(self, addr):
        self.sock = socket.create_connection(addr, timeout=30)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())

    def read(self):
        line = self.reader.readline()
        if not line:
            raise RuntimeError("server closed the connection")
        return json.loads(line)

    def predict(self, row, req_id):
        self.send({"id": req_id, "predict": {"row": row}})

    def close(self):
        self.sock.close()


def serial_baseline(addr, rows):
    client = Client(addr)
    baseline = []
    for i, row in enumerate(rows):
        client.predict(row, i)
        reply = client.read()
        assert reply.get("id") == i and "ok" in reply, f"baseline failed: {reply}"
        baseline.append(reply["ok"]["cluster"])
    client.close()
    return baseline


def healthy_client(addr, rows, baseline, model, do_reload, stats_phase, errors):
    try:
        client = Client(addr)
        for rnd in range(2):
            for i, row in enumerate(rows):
                req_id = rnd * 1000 + i
                client.predict(row, req_id)
                reply = client.read()
                if reply.get("id") != req_id or reply.get("ok", {}).get("cluster") != baseline[i]:
                    errors.append(f"row {i} round {rnd}: {reply} != cluster {baseline[i]}")
                if i % 7 == stats_phase:
                    client.send({"stats": True})
                    stats = client.read()
                    if "ok" not in stats:
                        errors.append(f"stats failed: {stats}")
                if do_reload and rnd == 0 and i == 5:
                    client.send({"reload": str(model)})
                    reply = client.read()
                    if not reply.get("ok", {}).get("reloaded"):
                        errors.append(f"reload failed: {reply}")
        client.close()
    except Exception as e:  # noqa: BLE001 - any client failure fails the soak
        errors.append(f"healthy client crashed: {e!r}")


def victim_client(addr, rows, errors):
    """Fires a burst, reads two replies, then dies without draining."""
    try:
        client = Client(addr)
        for i in range(10):
            client.predict(rows[i % len(rows)], i)
        client.read()
        client.read()
        client.sock.close()  # abrupt: eight replies left unread
    except Exception as e:  # noqa: BLE001
        errors.append(f"victim client setup crashed: {e!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bin", required=True, help="path to the cluster binary")
    args = parser.parse_args()

    rows = build_rows()
    with tempfile.TemporaryDirectory(prefix="serve-soak-") as tmp:
        workdir = Path(tmp)
        model = fit_model(args.bin, workdir, rows)
        daemon = Daemon(args.bin, model)
        try:
            addr = daemon.wait_for_addr()
            print(f"soak: daemon listening on {addr[0]}:{addr[1]}")
            baseline = serial_baseline(addr, rows)
            print(f"soak: serial baseline over {len(rows)} rows: {sorted(set(baseline))}")

            errors = []
            threads = [
                threading.Thread(target=healthy_client,
                                 args=(addr, rows, baseline, model, c == 0, c, errors))
                for c in range(3)
            ]
            threads.append(threading.Thread(target=victim_client, args=(addr, rows, errors)))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)

            # A predict, then the shutdown, on one connection: the shutdown
            # line must be handled once, so exactly one shutdown reply
            # arrives before the daemon closes the connection.
            shutdown = Client(addr)
            shutdown.predict(rows[0], "last")
            shutdown.send({"shutdown": True})
            replies = [json.loads(line) for line in shutdown.reader]
            shutdown.close()
            if not replies or replies[0].get("ok", {}).get("cluster") != baseline[0]:
                errors.append(f"predict before shutdown: {replies[:1]}")
            shutdowns = [r for r in replies if r.get("ok", {}).get("shutdown")]
            if len(shutdowns) != 1 or len(replies) != 2:
                errors.append(f"expected one predict and one shutdown reply, got {replies}")
        finally:
            try:
                code = daemon.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                daemon.proc.kill()
                raise RuntimeError("daemon did not exit after shutdown")

        if code != 0:
            print(f"soak: FAIL — daemon exited {code}; stderr: {daemon.stderr_lines}")
            return 1
        if errors:
            print(f"soak: FAIL — {len(errors)} divergences:")
            for e in errors[:20]:
                print(f"  {e}")
            return 1
        drain = [l for l in daemon.stderr_lines if "tickets resolved" in l]
        if not drain:
            print(f"soak: FAIL — no drain report; stderr: {daemon.stderr_lines}")
            return 1
        m = re.search(r"(\d+)/(\d+) tickets resolved", drain[-1])
        if not m or m.group(1) != m.group(2):
            print(f"soak: FAIL — leaked tickets: {drain[-1]}")
            return 1
        print(f"soak: PASS — {drain[-1].strip()}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
