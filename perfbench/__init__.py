"""End-to-end benchmark of the partition → schedule → compile → replay → search
loop.  ``python3 perfbench/run.py --help`` runs it; ``perfbench/README.md``
documents every workload and metric."""
