"""DYN1006 fixture: expensive results discarded in the hot zone."""


def scrub(events):  # dyn: hot
    seen = 0
    for ev in events:
        sorted(ev.parts)           # DYN1006: pure result discarded
        [p.strip() for p in ev.parts]  # DYN1006: comprehension discarded
        seen += 1
    return seen
