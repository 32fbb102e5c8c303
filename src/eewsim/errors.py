"""The one exception eewsim raises on bad input.

Every rejected input raises :class:`EewsimError`, whose message says what
was wrong, so the command-line layer maps "your input is wrong" to a single
exit code.
"""


class EewsimError(Exception):
    """Invalid input of any kind: a file, a config value or an argument."""
