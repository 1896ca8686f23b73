# hyperearservd container image. Two stages: a Go builder (the module
# has no external dependencies, so the source copy is the whole input)
# and a minimal Alpine runtime with a /data volume for the session logs.
#
#	docker build -t hyperearservd .
#	docker run -p 8787:8787 -v hyperear-data:/data hyperearservd
#
# README "Service quick start" documents the compose wiring.

FROM golang:1.23-alpine AS build
WORKDIR /src
COPY go.mod ./
COPY . .
# Static binary: the runtime stage needs no libc, and the image works
# under distroless or scratch too if /data is mounted from elsewhere.
RUN CGO_ENABLED=0 go build -trimpath -ldflags='-s -w' -o /out/hyperearservd ./cmd/hyperearservd

FROM alpine:3.20
RUN adduser -D -u 10001 hyperear \
	&& mkdir -p /data \
	&& chown hyperear:hyperear /data
COPY --from=build /out/hyperearservd /usr/local/bin/hyperearservd
USER hyperear
# One append-only log per session; mount a named volume here so streaming
# sessions survive container replacement.
VOLUME /data
EXPOSE 8787
# busybox wget ships with alpine; /readyz flips to 503 while draining,
# which wget -q treats as failure — exactly the readiness semantics.
HEALTHCHECK --interval=10s --timeout=2s --start-period=5s --retries=3 \
	CMD wget -q -O /dev/null http://127.0.0.1:8787/readyz || exit 1
ENTRYPOINT ["/usr/local/bin/hyperearservd"]
CMD ["-addr", ":8787", "-data-dir", "/data", "-fsync", "100ms"]
