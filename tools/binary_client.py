#!/usr/bin/env python3
"""Reference client for the `mat2c serve --binary` wire protocol.

Implements the length-prefixed frame format documented in docs/service.md
independently of the C++ codec, so it doubles as a cross-implementation
check: anything this script encodes must decode server-side and vice versa.

Usage:
  binary_client.py encode <requests.jsonl> > requests.bin
      Translates JSON-lines compile requests into Request frames (the same
      fields `mat2c serve` accepts in JSON mode; unknown fields are an
      error, mirroring the server's strictness).

  binary_client.py decode <responses.bin>
      Walks Response frames, prints one summary line per response, and
      exits 0 with "binary-serve-ok (<n> responses)" iff every response has
      ok=true. Exits 1 on a malformed stream or a failed response.

  binary_client.py run <requests.jsonl> [--retries N] [--base-ms B]
                       [--max-ms M] [--seed S] -- <server argv...>
      Live client: spawns the server, streams Request frames in, reads
      Response frames back, and RETRIES on transport failures — a dead
      server (ECONNRESET/EPIPE on write, short read mid-frame, torn frame)
      is answered by respawning and re-sending every still-unanswered
      request after a capped exponential backoff with deterministic jitter
      (requests are idempotent by content-addressed key, so re-sending a
      possibly-half-processed request is safe). Prints per-response
      summaries plus a retry-counter line; exits 1 cleanly (no traceback)
      when retries are exhausted or any response has ok=false.
"""
import json
import struct
import subprocess
import sys
import threading
import time

MAGIC = b"M2CB"
VERSION = 3  # v3: seven leading request strings, not eight; v2 added `admin`/`adminInfo`
TYPE_REQUEST = 1
TYPE_RESPONSE = 2

# WireRequest optional-toggle bit positions (must match src/service/protocol.cpp).
TOGGLES = ["constFold", "idioms", "vectorize", "sinkDecls", "checkElim", "degrade"]

ERROR_KINDS = ["None", "ParseError", "SemaError", "PassError", "VerifyError",
               "ResourceExhausted", "Timeout", "Panic"]

MASK64 = (1 << 64) - 1


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def retry_delay_ms(attempt, base_ms, max_ms, seed):
    """Mirror of RetryPolicy::delayMillis: jitter in [cap/2, cap], cap doubling
    per attempt. Deterministic so test schedules replay from a seed."""
    cap = base_ms
    for _ in range(attempt):
        if cap >= max_ms:
            break
        cap *= 2.0
    cap = min(cap, max_ms)
    h = splitmix64((seed ^ (attempt + 1)) & MASK64)
    frac = (h >> 11) / float(1 << 53)
    return cap * (0.5 + 0.5 * frac)


def pack_str(s):
    b = s.encode("utf-8")
    return struct.pack("<I", len(b)) + b


STRING_FIELDS = [("id", ""), ("source", ""), ("entry", ""), ("args", ""),
                 ("isa", ""), ("isa_text", ""), ("style", "proposed")]
KNOWN_FIELDS = ({k for k, _ in STRING_FIELDS} | set(TOGGLES) |
                {"tune", "tune_budget", "deadline_ms", "admin"})


def encode_request(obj):
    # isa defaults to "" = the server-default target (its --isa-file
    # description, or the dspx preset); name a preset explicitly to pin one.
    payload = b"".join(pack_str(obj.get(k, d)) for k, d in STRING_FIELDS)
    present = value = 0
    for bit, name in enumerate(TOGGLES):
        if name in obj:
            present |= 1 << bit
            if obj[name]:
                value |= 1 << bit
    payload += struct.pack("<BBBid", present, value,
                           1 if obj.get("tune") else 0,
                           int(obj.get("tune_budget", 0)),
                           float(obj.get("deadline_ms", 0.0)))
    payload += pack_str(obj.get("admin", ""))
    return MAGIC + struct.pack("<HHI", VERSION, TYPE_REQUEST, len(payload)) + payload


class Reader:
    def __init__(self, data):
        self.data, self.at = data, 0

    def take(self, n):
        if self.at + n > len(self.data):
            raise ValueError("truncated payload")
        out = self.data[self.at:self.at + n]
        self.at += n
        return out

    def u8(self):
        return self.take(1)[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def f64(self):
        return struct.unpack("<d", self.take(8))[0]

    def s(self):
        return self.take(self.u32()).decode("utf-8", errors="replace")


def decode_response(payload):
    r = Reader(payload)
    out = {"id": r.s()}
    flags = r.u8()
    out["ok"] = bool(flags & 1)
    out["cached"] = bool(flags & 2)
    out["deduped"] = bool(flags & 4)
    out["storeHit"] = bool(flags & 8)
    tuned = bool(flags & 16)
    kind = r.u8()
    out["errorKind"] = ERROR_KINDS[kind] if kind < len(ERROR_KINDS) else f"?{kind}"
    out["millis"] = r.f64()
    out["error"] = r.s()
    out["isa"] = r.s()
    out["cBytes"] = struct.unpack("<Q", r.take(8))[0]
    out["loopsVectorized"], out["idiomRewrites"] = struct.unpack("<ii", r.take(8))
    out["degraded"] = [r.s() for _ in range(r.u32())]
    out["tunedSignature"] = r.s()
    out["tuneCandidates"] = struct.unpack("<i", r.take(4))[0]
    out["tunedCycles"] = r.f64()
    out["tuneDefaultCycles"] = r.f64()
    out["tuned"] = tuned
    out["adminInfo"] = r.s()  # v2
    return out


def read_requests(path):
    """The JSON-lines requests of `path`, blank and '#' lines skipped. An
    unknown field raises ValueError, as the server rejects it."""
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            obj = json.loads(line)
            unknown = sorted(set(obj) - KNOWN_FIELDS)
            if unknown:
                raise ValueError(f"unknown request field '{unknown[0]}'")
            yield obj


def load_requests(path):
    requests = list(read_requests(path))
    for n, obj in enumerate(requests, 1):
        if not obj.get("id"):
            obj["id"] = f"req{n}"
    return requests


class ShortRead(Exception):
    pass


def read_exact(stream, n):
    buf = b""
    while len(buf) < n:
        chunk = stream.read(n - len(buf))
        if not chunk:
            raise ShortRead(f"short read: wanted {n} bytes, got {len(buf)}")
        buf += chunk
    return buf


def read_response_frame(stream):
    """One Response frame from a live stream. None on clean EOF at a frame
    boundary; ShortRead/ValueError on a torn or garbled stream."""
    first = stream.read(1)
    if not first:
        return None
    header = first + read_exact(stream, 11)
    if header[:4] != MAGIC:
        raise ValueError("bad frame magic")
    version, ftype, length = struct.unpack("<HHI", header[4:12])
    if version != VERSION:
        raise ValueError(f"unsupported frame version {version}")
    if ftype != TYPE_RESPONSE:
        raise ValueError(f"unexpected frame type {ftype}")
    return decode_response(read_exact(stream, length))


def cmd_run(argv):
    retries, base_ms, max_ms, seed = 5, 10.0, 2000.0, 1
    if "--" not in argv:
        print("run mode needs `-- <server argv...>`", file=sys.stderr)
        return 2
    split = argv.index("--")
    head, server_argv = argv[:split], argv[split + 1:]
    if not head or not server_argv:
        print("run mode needs a requests file and `-- <server argv...>`",
              file=sys.stderr)
        return 2
    requests_path = head[0]
    i = 1
    while i < len(head):
        flag = head[i]
        if i + 1 >= len(head):
            print(f"{flag} expects a value", file=sys.stderr)
            return 2
        value = head[i + 1]
        if flag == "--retries":
            retries = int(value)
        elif flag == "--base-ms":
            base_ms = float(value)
        elif flag == "--max-ms":
            max_ms = float(value)
        elif flag == "--seed":
            seed = int(value)
        else:
            print(f"unknown run option '{flag}'", file=sys.stderr)
            return 2
        i += 2

    requests = load_requests(requests_path)
    order = [obj["id"] for obj in requests]
    unanswered = {obj["id"]: obj for obj in requests}
    answered = {}
    stats = {"attempts": 0, "spawn_failures": 0, "transport_retries": 0}

    attempt = 0
    while unanswered:
        if attempt > retries:
            print(f"binary-client: retries exhausted after {attempt} attempt(s), "
                  f"{len(unanswered)} request(s) unanswered", file=sys.stderr)
            return 1
        if attempt > 0:
            time.sleep(retry_delay_ms(attempt - 1, base_ms, max_ms, seed) / 1000.0)
        attempt += 1
        stats["attempts"] += 1
        try:
            proc = subprocess.Popen(server_argv, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        except OSError as e:
            print(f"binary-client: cannot spawn server: {e}", file=sys.stderr)
            stats["spawn_failures"] += 1
            continue

        # Feed on a thread: writing everything before reading would deadlock
        # once the response pipe fills. EPIPE here just means the server died;
        # the reader side notices and the outer loop retries.
        batch = [unanswered[rid] for rid in order if rid in unanswered]

        def feed():
            try:
                for obj in batch:
                    proc.stdin.write(encode_request(obj))
                    proc.stdin.flush()
                proc.stdin.close()
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass

        feeder = threading.Thread(target=feed)
        feeder.start()
        try:
            while True:
                resp = read_response_frame(proc.stdout)
                if resp is None:
                    break
                answered[resp["id"]] = resp
                unanswered.pop(resp["id"], None)
        except (ShortRead, ValueError, ConnectionResetError, OSError) as e:
            print(f"binary-client: transport error (attempt {attempt}): {e}",
                  file=sys.stderr)
        feeder.join()
        try:
            proc.stdout.close()
        except OSError:
            pass
        proc.wait()
        if unanswered:
            stats["transport_retries"] += 1

    failures = 0
    for rid in order:
        resp = answered[rid]
        if not resp["ok"]:
            failures += 1
        print(json.dumps(resp))
    print(f"binary-client-stats attempts={stats['attempts']} "
          f"transport_retries={stats['transport_retries']} "
          f"spawn_failures={stats['spawn_failures']}", file=sys.stderr)
    if failures:
        print(f"binary-serve-failed ({failures} of {len(order)} responses)",
              file=sys.stderr)
        return 1
    print(f"binary-serve-ok ({len(order)} responses)", file=sys.stderr)
    return 0


def main():
    if len(sys.argv) >= 3 and sys.argv[1] == "run":
        return cmd_run(sys.argv[2:])
    if len(sys.argv) != 3 or sys.argv[1] not in ("encode", "decode"):
        print(__doc__, file=sys.stderr)
        return 2

    if sys.argv[1] == "encode":
        for obj in read_requests(sys.argv[2]):
            sys.stdout.buffer.write(encode_request(obj))
        sys.stdout.buffer.flush()
        return 0

    with open(sys.argv[2], "rb") as f:
        data = f.read()
    at, failures, count = 0, 0, 0
    while at < len(data):
        if data[at:at + 4] != MAGIC:
            print(f"bad frame magic at byte {at}", file=sys.stderr)
            return 1
        version, ftype, length = struct.unpack("<HHI", data[at + 4:at + 12])
        if version != VERSION or ftype != TYPE_RESPONSE:
            print(f"unexpected frame version={version} type={ftype}", file=sys.stderr)
            return 1
        at += 12
        try:
            resp = decode_response(data[at:at + length])
        except ValueError as e:
            print(f"frame at byte {at - 12}: {e}", file=sys.stderr)
            return 1
        at += length
        count += 1
        if not resp["ok"]:
            failures += 1
        print(json.dumps(resp))
    if failures:
        print(f"binary-serve-failed ({failures} of {count} responses)", file=sys.stderr)
        return 1
    print(f"binary-serve-ok ({count} responses)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ValueError as e:
        print(f"binary-client: {e}", file=sys.stderr)
        sys.exit(1)
