"""One set-up sample in a fresh process: `import symineq` plus corpus generation.

Usage: python3 perfbench/probe.py <workload> <seed>
Prints {"setup_s": <seconds>} on stdout.
"""

import json
import sys
import time

from workloads import corpus_doc, use_checkout_source


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    use_checkout_source()
    start = time.perf_counter()
    import symineq

    symineq.generate_corpus(symineq.CorpusSpec.from_json(corpus_doc(workload, seed)))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
