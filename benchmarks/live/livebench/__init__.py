"""The repo's one canonical live benchmark (see ``../README.md``).

Everything here measures the program from outside: ``/proc`` CPU of
each worker, each worker's ``/metrics`` page, and timers this package
puts around public calls.  Nothing under ``src/`` is changed.
"""
