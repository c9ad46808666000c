"""``random.Random`` draws, made from its Mersenne Twister words in bulk.

A workload's format is the sequence of ``random.Random(seed)`` calls that
builds it.  Every one of those calls turns 32-bit MT19937 outputs into a
value by a fixed rule, so the same values come out of the same words read
many at a time: ``rng.getrandbits(32 * n)`` is the next ``n`` outputs,
least significant first, which is exactly what ``n`` per-call draws would
have consumed.  :class:`WordStream` reads them in bounded blocks and
applies CPython's rules with numpy:

* ``randrange(n)``: ``k = n.bit_length()``; a word gives ``word >> (32 - k)``
  and is rejected (the next word is tried) when that is ``>= n``;
* ``random()``: two words ``a, b`` give ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``;
* ``choices(cum_weights=...)``: ``bisect_right(cum, random() * total)``,
  searching only the first ``len(cum) - 1`` entries;
* ``shuffle``: Fisher–Yates, ``randrange(i + 1)`` for ``i = n - 1 .. 1``.

When the stream is closed it puts ``rng`` exactly where the per-call draws
would have left it: back to the state before the last block it read, then
forward by the words used from that block.  It never imports
``numpy.random``.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np

#: Words read from the generator at a time; every temporary is a few of these.
BLOCK_WORDS = 1 << 14

#: Fisher–Yates draws resolved together.  Their bounds differ by at most
#: this much, so about ``SHUFFLE_CHUNK / bound`` of the words cannot be
#: classified by the chunk's bounds alone and are resolved one at a time.
SHUFFLE_CHUNK = 1 << 10

#: A variable-length walk over a window hops ``2 ** HOP_DOUBLINGS`` draws at
#: a time in Python and fills in the draws between hops with numpy.
HOP_DOUBLINGS = 4
HOP_STRIDE = 1 << HOP_DOUBLINGS

_TWO_26 = 67108864.0
_TWO_M53 = 1.0 / 9007199254740992.0


def _shift(bound: int) -> int:
    """How far ``randrange(bound)`` shifts a word: ``32 - k`` for a
    ``k``-bit bound.  A bound one word cannot serve is refused."""
    if not 1 <= bound < 1 << 32:
        raise ValueError(f"bound {bound} is outside [1, 2**32)")
    return 32 - int(bound).bit_length()


class WordStream:
    """The words ``rng`` would hand its next per-call draws, read in bulk.

    Use it as a context manager: leaving the ``with`` block settles ``rng``
    so the next per-call draw continues exactly where these left off.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._words = np.empty(0, dtype=np.uint32)
        self._pos = 0
        # (offset in _words, rng state before that block) for every block
        # that still has unconsumed words.
        self._marks: List[Tuple[int, object]] = []

    def __enter__(self) -> "WordStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Leave ``rng`` just past the last word consumed."""
        if not self._marks:
            return
        offset, state = max(
            (mark for mark in self._marks if mark[0] <= self._pos),
            key=lambda mark: mark[0],
        )
        self._rng.setstate(state)
        if self._pos > offset:
            self._rng.getrandbits(32 * (self._pos - offset))
        self._words = self._words[:0]
        self._pos = 0
        self._marks = []

    # ------------------------------------------------------------ the words

    def _window(self, size: int) -> np.ndarray:
        """The next ``size`` unconsumed words, reading a block if needed."""
        available = len(self._words) - self._pos
        if available < size:
            # Keep the unconsumed tail and the marks of the blocks it
            # spans; a block that started before the tail keeps a negative
            # offset, since its state restores to its first word.
            marks = [(offset - self._pos, state) for offset, state in self._marks]
            marks = [
                mark for k, mark in enumerate(marks)
                if k + 1 == len(marks) or marks[k + 1][0] > 0
            ]
            n = max(BLOCK_WORDS, size - available)
            marks.append((available, self._rng.getstate()))
            fresh = np.frombuffer(
                self._rng.getrandbits(32 * n).to_bytes(4 * n, "little"),
                dtype="<u4",
            )
            self._words = (
                np.concatenate((self._words[self._pos:], fresh))
                if available else fresh
            )
            self._pos = 0
            self._marks = marks
        return self._words[self._pos:self._pos + size]

    # ----------------------------------------------------------- draw kinds

    def randbelow(self, bound: int, count: int) -> np.ndarray:
        """``[rng.randrange(bound) for _ in range(count)]`` as ``uint64``."""
        shift = _shift(bound)
        out = np.empty(count, dtype=np.uint64)
        done = 0
        while done < count:
            words = self._window(min(BLOCK_WORDS, 2 * (count - done) + 16))
            values = words >> shift
            hits = np.flatnonzero(values < bound)[: count - done]
            out[done:done + len(hits)] = values[hits]
            done += len(hits)
            self._pos += int(hits[-1]) + 1 if done == count else len(words)
        return out

    def alternating(
        self, first: int, second: int, count: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``count`` pairs ``(randrange(first), randrange(second))``.

        Accepted draws alternate between the bounds, so the m-th accepted
        word is a ``first`` draw when m is even.  Which words are accepted
        is a two-state automaton: a word both bounds accept is accepted in
        either state (and flips it), one neither accepts is rejected in
        either, and only a word one bound accepts needs the state.  That
        state is the one the previous such word set, flipped once per
        both-accepted word since: a parity scan.
        """
        shift_a, shift_b = _shift(first), _shift(second)
        out = (np.empty(count, dtype=np.uint64), np.empty(count, dtype=np.uint64))
        drawn = 0  # accepted draws so far, of 2 * count
        while drawn < 2 * count:
            need = 2 * count - drawn
            words = self._window(min(BLOCK_WORDS, 2 * need + 16))
            value_a, value_b = words >> shift_a, words >> shift_b
            accept_a, accept_b = value_a < first, value_b < second
            accepted = accept_a & accept_b
            parity = np.bitwise_xor.accumulate(accepted.view(np.uint8))
            decides = np.flatnonzero(accept_a != accept_b)
            # The state before each deciding word: what the previous one
            # left (an ``a``-only word leaves ``b`` next, and vice versa),
            # flipped by the both-accepted words in between.
            left = accept_a[decides].view(np.uint8)
            flips = parity[decides]
            state = np.empty_like(left)
            state[:1] = drawn % 2
            state[1:] = left[:-1]
            state[1:] ^= flips[:-1]
            state ^= flips
            accepted[decides] = left ^ state
            hits = np.flatnonzero(accepted)[:need]
            for kind, values in ((0, value_a), (1, value_b)):
                picked = hits[(kind - drawn) % 2::2]
                at = (drawn + 1 - kind) // 2  # ``kind`` draws made so far
                out[kind][at:at + len(picked)] = values[picked]
            drawn += len(hits)
            self._pos += int(hits[-1]) + 1 if drawn == 2 * count else len(words)
        return out

    def random(self, count: int) -> np.ndarray:
        """``[rng.random() for _ in range(count)]`` as ``float64``."""
        out = np.empty(count, dtype=np.float64)
        done = 0
        while done < count:
            take = min(BLOCK_WORDS // 2, count - done)
            words = self._window(2 * take)
            out[done:done + take] = _floats(words[0::2], words[1::2])
            done += take
            self._pos += 2 * take
        return out

    def choices(self, cum_weights: np.ndarray, count: int) -> np.ndarray:
        """``rng.choices(range(len(cum_weights)), cum_weights=..., k=count)``."""
        total = float(cum_weights[-1])
        last = len(cum_weights) - 1
        out = np.empty(count, dtype=np.int64)
        for start in range(0, count, BLOCK_WORDS):
            stop = min(count, start + BLOCK_WORDS)
            picks = np.searchsorted(
                cum_weights, self.random(stop - start) * total, side="right"
            )
            out[start:stop] = np.minimum(picks, last)
        return out

    def random_then_below(
        self, threshold: float, low: int, high: int, count: int
    ) -> np.ndarray:
        """``[randrange(low) if rng.random() < threshold else randrange(high)
        for _ in range(count)]`` as ``uint64``.

        Each draw starts where the previous one's accepted word ended, so
        the draws are found by a walk: where a draw starting at each word
        would end is computed in bulk, then the walk from the window's
        first word follows those ends.
        """
        shift_low, shift_high = _shift(low), _shift(high)
        out = np.empty(count, dtype=np.uint64)
        done = 0
        size = 16
        while done < count:
            size = max(size, min(BLOCK_WORDS, 4 * (count - done) + 16))
            words = self._window(size)
            n = len(words)
            index = np.arange(n)
            value_low, value_high = words >> shift_low, words >> shift_high
            is_low = _floats(words[:-2], words[1:-1]) < threshold
            # ends[p]: the word a draw starting at word p accepts (n: not
            # in this window).
            ends = np.where(
                is_low,
                _next_true(value_low < low, index)[2:],
                _next_true(value_high < high, index)[2:],
            )
            # hops[p]: where the draw after one starting at p starts; a
            # start whose draw does not finish here hops to the sink n + 1.
            hops = np.full(n + 2, n + 1, dtype=np.int64)
            hops[:n - 2] = np.where(ends < n, ends + 1, n + 1)
            finishes = hops <= n
            # The walk from word 0: hop HOP_STRIDE draws at a time to find
            # every HOP_STRIDE-th start, then fill the starts in between
            # for all of those at once.
            stride_hops = hops
            for _ in range(HOP_DOUBLINGS):
                stride_hops = stride_hops[stride_hops]
            limit = count - done
            milestones = [0]
            while milestones[-1] <= n and len(milestones) * HOP_STRIDE <= limit:
                milestones.append(int(stride_hops[milestones[-1]]))
            walk = np.empty((len(milestones), HOP_STRIDE), dtype=np.int64)
            walk[:, 0] = milestones
            for step in range(1, HOP_STRIDE):
                walk[:, step] = hops[walk[:, step - 1]]
            starts = walk.ravel()
            finished = finishes[starts]
            stop = min(
                limit, len(starts) if finished.all() else int(np.argmin(finished))
            )
            if stop == 0:
                size *= 2  # a rejection run longer than the window
                continue
            resume = int(starts[stop])
            at = starts[:stop]
            end_at = ends[at]
            out[done:done + len(at)] = np.where(
                is_low[at], value_low[end_at], value_high[end_at]
            )
            done += len(at)
            self._pos += resume
        return out

    def shuffled(self, n: int) -> np.ndarray:
        """``x = list(range(n)); rng.shuffle(x)`` as a signed integer array
        (of the narrowest type that holds ``-n``)."""
        if n < 2:
            return np.arange(n, dtype=np.min_scalar_type(-n))
        return _apply_swaps(self._swap_targets(n))

    def _swap_targets(self, n: int) -> np.ndarray:
        """``j[i] = randrange(i + 1)`` for ``i = n - 1 .. 1`` (``j[0] = 0``).

        Draws are resolved in chunks whose bounds share a bit length: a
        word below the chunk's smallest bound is accepted by whichever draw
        it falls to, one at or above its largest is rejected by all, and
        the few in between are decided one by one, in order, once the
        draw they fall to is known.
        """
        targets = np.zeros(n, dtype=np.min_scalar_type(-n))
        i = n - 1  # the next draw is randrange(i + 1)
        while i > 0:
            high = i + 1
            k = high.bit_length()
            low = max(1 << (k - 1), high - SHUFFLE_CHUNK + 1)  # >= 2
            need = high - low + 1
            words = self._window(min(BLOCK_WORDS, 2 * need + 16))
            values = (words >> (32 - k)).astype(np.int64)
            accept = values < low
            unsure = np.flatnonzero(accept != (values < high))
            if len(unsure):
                # Sure acceptances before each unsure word.
                before = np.searchsorted(np.flatnonzero(accept), unsure)
                extra = 0
                for at, value, prior in zip(
                    unsure.tolist(), values[unsure].tolist(), before.tolist()
                ):
                    drawn = prior + extra  # draws this chunk made before it
                    if drawn >= need:
                        break
                    if value < high - drawn:
                        accept[at] = True
                        extra += 1
            hits = np.flatnonzero(accept)[:need]
            got = len(hits)
            targets[i:i - got:-1] = values[hits]
            i -= got
            self._pos += int(hits[-1]) + 1 if got == need else len(words)
        return targets


def _floats(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``random()`` from its two words."""
    return ((a >> 5) * _TWO_26 + (b >> 6)) * _TWO_M53


def _next_true(mask: np.ndarray, index: np.ndarray) -> np.ndarray:
    """For each position, the first index at or after it where ``mask``
    holds (``len(mask)`` if none)."""
    marked = np.where(mask, index, len(mask))
    return np.minimum.accumulate(marked[::-1])[::-1]


def _apply_swaps(j: np.ndarray) -> np.ndarray:
    """The permutation Fisher–Yates leaves in ``arange(n)`` after swapping
    ``x[i], x[j[i]]`` for ``i = n - 1 .. 1``.

    Position ``i`` is final once step ``i`` has run, and receives what
    position ``j[i]`` held just before: what the latest earlier step
    (the smallest ``i' > i``) that targeted ``j[i]`` moved there, else
    ``j[i]`` itself.  What step ``i'`` moved is in turn what position
    ``i'`` held before it — a chain of increasing steps that ends at a
    position no earlier step touched, which holds its own index.  Chains
    are followed for every position at once by pointer jumping.
    """
    n = len(j)
    small = j.dtype
    # Steps grouped by target, ascending within a group: one sort of
    # unique ``target * n + step`` keys.
    key = j.astype(np.int64)
    key *= n
    key += np.arange(n)
    key.sort()
    step = (key % n).astype(small)
    key //= n  # the targets, in the same order
    same = key[1:] == key[:-1]
    # later[i]: the next step after i (larger i', earlier in time) with
    # the same target, or -1.
    later = np.full(n, -1, dtype=small)
    later[step[:-1][same]] = step[1:][same]
    # first_hit[p]: the first step i' > p that targeted position p.
    heads = np.flatnonzero(np.concatenate(([True], ~same)))
    first, positions = step[heads], key[heads]
    del key, step, same, heads
    first_hit = np.full(n, -1, dtype=small)
    first_hit[positions] = np.where(first != positions, first, later[first])
    del first, positions
    # origin[p]: the original index position p holds just before step p.
    origin = np.where(first_hit >= 0, first_hit, np.arange(n, dtype=small))
    del first_hit
    while True:
        jumped = origin[origin]
        if np.array_equal(jumped, origin):
            break
        origin = jumped
    return np.where(later >= 0, origin[np.maximum(later, 0)], j)
