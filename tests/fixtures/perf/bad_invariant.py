"""DYN1004 fixture: loop-invariant work repeated inside a hot loop."""


def cost(table):
    return len(table)


def route(packets, cfg):  # dyn: hot
    out = []
    for p in packets:
        base = cost(cfg)                      # DYN1004: invariant call
        cap = cfg.net.limits.window.max_size  # DYN1004: deep chain
        out.append(min(p + base, cap))
    return out
