// Package gendoc is the fixture corpus for the doclint rule: generated
// files are exempt, hand-written ones are not.
package gendoc

func HandUndocumented() {} // want doclint
