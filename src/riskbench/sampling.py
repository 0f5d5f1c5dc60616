"""Sampling schemes and the derived-stream randomness contract.

Every replication draws from its own counter-based stream keyed by
(master_seed, purpose tag, replication index), so results are bitwise
reproducible regardless of execution order and no state is shared
between replications.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Scheme:
    """n observations, each the sum of h consecutive one-day outcomes.

    X_i = Z_i + ... + Z_{i+h-1} over a single stream of n + h - 1 base
    outcomes, so consecutive observations share h - 1 summands; h = 1 gives
    n independent one-day outcomes.
    """

    n: int
    h: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"sample size must be a positive integer, got {self.n!r}")
        if not (isinstance(self.h, int) and self.h >= 1):
            raise ValueError(f"window must be a positive integer, got {self.h!r}")

    @property
    def label(self) -> str:
        """Canonical text form, also accepted by parse_scheme."""
        return "iid" if self.h == 1 else f"overlapping:{self.h}"

    def window_sums(self, base: np.ndarray, out: np.ndarray) -> None:
        """Write the X_i of rows of base outcomes Z (rows, n + h - 1) into
        out (rows, n); base serves as scratch."""
        if self.h == 1:
            out[...] = base
        else:
            # X_i = Z_i + ... + Z_{i+h-1} = S_{i+h-1} - S_{i-1} over the prefix
            # sums S, in place; S_{-1} = 0 and S - 0.0 == S, so X_0 = S_{h-1}
            np.cumsum(base, axis=1, out=base)
            out[:, 0] = base[:, self.h - 1]
            np.subtract(base[:, self.h :], base[:, : self.n - 1], out=out[:, 1:])


def parse_scheme(text: str, n: int) -> Scheme:
    """Parse 'iid' or 'overlapping:h' (h >= 2, 10 when left out) at sample size n."""
    parts = text.strip().lower().split(":")
    if parts[0] == "iid" and len(parts) == 1:
        return Scheme(n, 1)
    if parts[0] == "overlapping" and len(parts) <= 2:
        h = parts[1] if len(parts) == 2 else "10"
        if h.isdecimal():
            if int(h) < 2:
                raise ValueError(
                    f"sampling scheme {text!r} needs a window of at least 2; "
                    "one-day outcomes are 'iid'"
                )
            return Scheme(n, int(h))
    raise ValueError(f"unknown sampling scheme {text!r}")


def _check_index(k: int) -> None:
    if k < 0:
        raise ValueError(f"replication index must be non-negative, got {k}")


def stream_key(master_seed: int, tag: str, k: int) -> int:
    """The 128-bit Philox key for stream (master_seed, tag, k).

    High 64 bits: BLAKE2b-64 of "master_seed:tag"; low 64 bits: the
    replication index. Distinct (tag, k) pairs get distinct keys, and
    Philox streams with distinct keys are independent by construction.
    """
    _check_index(k)
    digest = hashlib.blake2b(f"{master_seed}:{tag}".encode(), digest_size=8).digest()
    return (int.from_bytes(digest, "little") << 64) | (k & _MASK64)


@dataclass(frozen=True)
class RandomnessContract:
    """Deterministic per-replication stream derivation from one master seed."""

    master_seed: int

    def stream(self, tag: str, k: int) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=stream_key(self.master_seed, tag, k))
        )

    def keyed(self, tag: str) -> Callable[[int], np.random.Generator]:
        """at(k): one generator per tag, reset to the start of stream (tag, k).

        Philox is counter-based, so a stream is fixed by its key alone: the
        draws after at(k) match those of stream(tag, k) exactly, whatever the
        generator drew before. Every call returns the same generator.
        """
        rng = self.stream(tag, 0)
        # its fresh state (counter 0, empty buffer, key [0, T]) in plain ints,
        # which the state setter reads faster than numpy words
        state = rng.bit_generator.state
        words = state["state"] = {name: a.tolist() for name, a in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()

        def at(k: int) -> np.random.Generator:
            _check_index(k)
            words["key"][0] = k & _MASK64
            rng.bit_generator.state = state
            return rng

        return at
