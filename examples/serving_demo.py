#!/usr/bin/env python3
"""Serving quickstart: boot the HTTP scheduling service, fire mixed traffic.

The demo starts a :class:`repro.serving.ServingServer` in-process on an
ephemeral port, then plays a client workload with the three traffic classes
a production deployment sees:

* **cold**     — workloads the service has never scheduled,
* **warm**     — repeats and normalized-equivalent variants (B variants,
  other GEMM loop orders) served from the content-addressed cache,
* **duplicate** — eight concurrent identical requests for a program no
  earlier phase scheduled: one is scheduled and the others ride its
  in-flight schedule (``service coalesced`` in the report counts the
  riders, 7 when all eight arrive while it runs).

Pass ``--cache PATH`` to back the cache with SQLite: run the demo twice and
the second run's "cold" phase is served entirely from disk.
"""

import argparse
import time
from concurrent.futures import ThreadPoolExecutor

from repro.api import SearchConfig, Session
from repro.serving import ServingClient, ServingServer

COLD = ["gemm:a", "atax:a", "bicg:a", "mvt:a"]
WARM = ["gemm:b", "atax:b", "bicg:b", "mvt:b", "gemm:a"]
DUPLICATE = ["covariance:a"] * 8


def fire(client, names, workers=1):
    started = time.perf_counter()
    if workers == 1:
        responses = [client.schedule(name) for name in names]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            responses = list(pool.map(client.schedule, names))
    elapsed = time.perf_counter() - started
    cached = sum(1 for response in responses if response.from_cache)
    return responses, cached, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache", default=None,
                        help="SQLite cache path (default: in-memory)")
    parser.add_argument("--threads", type=int, default=8)
    args = parser.parse_args()

    session = Session(
        threads=args.threads, cache_path=args.cache,
        search=SearchConfig(population_size=8, epochs=1,
                            generations_per_epoch=2))
    with ServingServer(session) as server:
        client = ServingClient(server.address)
        print(f"serving on {server.address} "
              f"({client.health()['status']}, cache={'sqlite' if args.cache else 'memory'})\n")

        _, cached, elapsed = fire(client, COLD, workers=4)
        print(f"cold:      {len(COLD)} requests in {elapsed:.3f}s "
              f"({cached} cache hits)")

        _, cached, elapsed = fire(client, WARM, workers=4)
        print(f"warm:      {len(WARM)} requests in {elapsed:.3f}s "
              f"({cached} served from cache — B variants reuse A schedules)")

        _, cached, elapsed = fire(client, DUPLICATE, workers=len(DUPLICATE))
        print(f"duplicate: {len(DUPLICATE)} concurrent identical requests "
              f"in {elapsed:.3f}s")

        report = client.report()
        print("\n=== service report ===")
        for key in ("schedule_calls", "schedule_cache_hits",
                    "schedule_cache_misses", "normalization_hits",
                    "cache_backend", "cache_memory_hits",
                    "cache_disk_hits", "database_version"):
            print(f"  {key:22} {report[key]}")
        service = report["service"]
        print(f"  {'service scheduled':22} {service['scheduled']}")
        print(f"  {'service coalesced':22} {service['coalesced']}")
        print(f"\n{session.report().summary()}")
    session.close()


if __name__ == "__main__":
    main()
