"""Performance analysis toolkit for a mixed multicast/unicast NOMA downlink.

Closed-form outage and secrecy-throughput evaluators under imperfect,
perfect, and purely statistical channel knowledge, a Monte Carlo oracle
with confidence intervals, and a CSV sweep CLI. Each public name is
imported from its module: `from noma_perf import analytic, montecarlo`,
`from noma_perf.channel import SystemConfig`.
"""
