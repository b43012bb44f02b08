"""DYN1005 fixture: exception control flow and eager formatting."""


def lookup(events, cache):  # dyn: hot
    hits = 0
    for ev in events:
        try:                   # DYN1005: exceptions as control flow
            hits += cache[ev]
        except KeyError:
            hits += 1
        tag = f"event {ev} processed"  # DYN1005: unguarded f-string
        hits += len(tag)
    return hits
