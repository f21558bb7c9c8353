"""Record reference outputs: ``python3 perfbench/record.py FIRST_SEED LAST_SEED``."""

import argparse
import os

import benchenv

benchenv.pin_threads()
benchenv.add_src_path()

import reference  # noqa: E402  (numpy loads only after the threads are pinned)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args(argv)
    for seed in range(args.first, args.last + 1):
        reference.record(seed, benchenv.WORK / f"reference-{os.getpid()}")
        print(f"recorded {reference.path_for(seed).name}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
