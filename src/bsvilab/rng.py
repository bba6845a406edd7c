"""Reproducible random streams built on the counter-based Philox generator.

Derivation rule (stable across releases, suitable for cross-language
re-implementation): the stream for a given role is Philox4x64 keyed with
the pair of 64-bit words ``(seed mod 2**64, namespace + index)``.  Draws
are taken sequentially from that stream, so the value consumed at step i
is the i-th variate of the keyed stream.  Namespaces keep independent
roles from colliding:

* paths:      key = (seed, PATH_NS + path_index), one stream per sample path
* auxiliary:  key = (seed, AUX_NS + role_index), test probes

A path's up/down signs are those of ``integers(0, 2)`` on its stream:
each keeps bit 31 of a 32-bit half of the next raw 64-bit word, low
half first.  So sign 2k of a path is bit 31 of the stream's word k, and
sign 2k + 1 is bit 63.  A sign carries one bit, so sign_paths returns
one int8 per path and step.

Everything downstream of a PathBundle is a pure function of these streams,
which is what makes re-runs byte-identical.
"""

import numpy as np

PATH_NS = 0
AUX_NS = 1 << 62

_MASK64 = (1 << 64) - 1


def keyed_stream(seed: int, index: int) -> np.random.Generator:
    """Generator for the Philox stream keyed by (seed, index)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def path_stream(seed: int, path_index: int) -> np.random.Generator:
    return keyed_stream(seed, PATH_NS + path_index)


def _path_streams(seed: int, n_paths: int):
    """The path streams 0, 1, ... in turn, as one generator re-keyed in place.

    Each re-key restores the state of a freshly keyed Philox (counter 0,
    empty buffers) under the path's key, so the draws equal those of
    path_stream(seed, p) without building a generator per path.
    """
    gen = path_stream(seed, 0)
    bitgen = gen.bit_generator
    fresh = bitgen.state
    for p in range(n_paths):
        if p:
            fresh["state"]["key"] = np.array(
                [seed & _MASK64, (PATH_NS + p) & _MASK64], dtype=np.uint64
            )
            bitgen.state = fresh
        yield gen


def gaussian_increments(seed: int, n_paths: int, dt: np.ndarray) -> np.ndarray:
    """Brownian increments, shape (n_paths, len(dt)), one stream per path."""
    sqdt = np.sqrt(np.asarray(dt, dtype=float))
    out = np.empty((n_paths, sqdt.size))
    # each row drawn in place, then one product: the same doubles as a
    # product per row
    for p, gen in enumerate(_path_streams(seed, n_paths)):
        gen.standard_normal(out=out[p])
    out *= sqdt
    return out


def sign_paths(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Fair up/down indicators in {0, 1}, int8, shape (n_paths, n_steps).

    Row p equals path_stream(seed, p).integers(0, 2, n_steps), read from
    the raw words by the sign rule of the module docstring: the words'
    little-endian 32-bit halves, low half first, shifted right by 31 in
    place.
    """
    words = np.empty((n_paths, (n_steps + 1) // 2), dtype=np.uint64)
    for p, gen in enumerate(_path_streams(seed, n_paths)):
        words[p] = gen.bit_generator.random_raw(words.shape[1])
    halves = words.astype("<u8", copy=False).view("<u4")
    halves >>= 31
    return halves[:, :n_steps].astype(np.int8)
