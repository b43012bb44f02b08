"""DYN1001 fixture: allocation inside a hot loop."""


def drain(events):  # dyn: hot
    total = 0
    for ev in events:
        staged = list(ev.payload)        # DYN1001: alloc call per event
        keys = [k for k in ev.keys]      # DYN1001: comprehension per event
        merged = staged + [ev.src]       # DYN1001: sequence concat
        total += len(merged) + len(keys)
    return total
