"""Selection-model toolkit for cross-country vaccination rollout data.

The package loads none of its modules; import what you use from them:
stdnorm (standard-normal tail functions), probit (probit maximum
likelihood), heckman (the two-step estimator and its covariances), panel
and specs (the country panel, model frames, the model specifications and
outlier filters), replicate (tables, model suites, figure data), synth
(the synthetic process and Monte Carlo recovery), render (markdown, CSV
and SVG output) and cli (the command line).
"""

__version__ = "0.1.0"
