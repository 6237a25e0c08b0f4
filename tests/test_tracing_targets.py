"""The traced benchmark run wraps every name in perfbench's TARGETS.

`perfbench.tracing.Tracer.install` looks each (owner, attribute) up in the
owner's own __dict__, so a rename or a move of a traced function or method
breaks the traced run.  This test reads TARGETS and wraps nothing.
"""

from perfbench import tracing


def test_every_traced_name_is_defined_on_its_owner():
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in tracing.TARGETS if attr not in vars(owner)]
    assert missing == []
