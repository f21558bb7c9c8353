#!/usr/bin/env python3
"""Parameter and attention-cost comparison: sparse low-rank vs dense.

Prints per-projection and whole-model parameter counts, plus the attention
score multiply-adds implied by the mask against full quadratic attention,
over a range of window lengths.
"""

import argparse
from dataclasses import replace

from slat.attention import build_mask
from slat.model import SlatConfig, param_count


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--band-width", type=int, default=2)
    p.add_argument("--globals", type=int, default=2, dest="n_global")
    p.add_argument("--rank", type=int, default=4)
    args = p.parse_args()

    cfg = SlatConfig(band_width=args.band_width, n_global=args.n_global,
                     rank=args.rank)
    dense = replace(cfg, rank=None)

    d, e, r = cfg.d_model, cfg.d_head, cfg.rank
    print("projection parameters (one head, one of Q/K/V)")
    print(f"  dense   {d}x{e}          = {d * e}")
    print(f"  factored {d}x{r} + {r}x{e} = {d * r + r * e}")
    print()
    print("whole model parameters")
    print(f"  low-rank: {param_count(cfg):>9,}")
    print(f"  dense:    {param_count(dense):>9,}")
    print()

    print(f"attention score multiply-adds, band {cfg.band_width}, "
          f"{cfg.n_global} global tokens, head dim {e}")
    print(f"{'tokens':>8} {'sparse':>12} {'dense':>12} {'ratio':>7}")
    for length in (10, 30, 60, 120, 240, 480):
        # global tokens are the first n_global positions, as in the model
        s = int(build_mask(length, cfg.band_width, cfg.n_global).sum()) * e
        f = length * length * e
        print(f"{length:>8} {s:>12,} {f:>12,} {s / f:>7.2%}")
    print()

    mask = build_mask(12, cfg.band_width, cfg.n_global)
    print("mask pattern at 12 tokens:")
    for row in mask:
        print("".join("1" if allowed else "0" for allowed in row))


if __name__ == "__main__":
    main()
