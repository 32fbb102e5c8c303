"""The one exception eewsim raises on bad input, and the one range rule.

Every rejected input raises :class:`EewsimError`, whose message says what
was wrong, so the command-line layer maps "your input is wrong" to a single
exit code. Every bound on an input number is one :func:`in_range` call.
"""

import math


class EewsimError(Exception):
    """Invalid input of any kind: a file, a config value or an argument."""


def in_range(name: str, x, lo=-math.inf, hi=math.inf, lo_open=False, hi_open=False):
    """``x``, or EewsimError ``<name> must be <rule>, got <x>`` when it breaks the rule.

    The rule is ``lo <= x <= hi``, strict on an open side, and a float must
    be finite; an int is compared exactly, never converted to float. ``<rule>``
    reads ``>= 2``, ``> 0``, ``in [0, 1]``, ``in [0, 18446744073709551616)``,
    ``finite`` or, for a float that is not, ``finite and > 0``.
    """
    finite = isinstance(x, int) or math.isfinite(x)
    if finite and (lo < x if lo_open else lo <= x) and (x < hi if hi_open else x <= hi):
        return x
    rule = "finite"
    if lo > -math.inf and hi < math.inf:
        rule = f"in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"
    elif lo > -math.inf or hi < math.inf:
        bound = f"> {lo}" if lo_open else f">= {lo}"
        if hi < math.inf:
            bound = f"< {hi}" if hi_open else f"<= {hi}"
        rule = bound if finite else f"finite and {bound}"
    raise EewsimError(f"{name} must be {rule}, got {x}")
